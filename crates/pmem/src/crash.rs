//! Ground-truth crash-state generation.
//!
//! PMTest *infers* whether writes are guaranteed durable; this module
//! *simulates* the hardware to enumerate the memory images a power failure
//! could actually leave behind. The two implementations are intentionally
//! independent: integration tests cross-validate that every `FAIL` the
//! checking engine reports corresponds to a reachable inconsistent crash
//! state, and that fixed programs have none (DESIGN.md §6). The Yat-like
//! baseline (`pmtest-baseline`) is also built on this generator.
//!
//! # Hardware model
//!
//! Following the paper's x86 model (§3.1): a store becomes *guaranteed*
//! durable once a `clwb` covering its cache line is issued after it **and** a
//! subsequent `sfence` completes. Until then the line may persist at any
//! moment (cache eviction), so earlier pending stores may or may not be in
//! PM. Within one cache line, writeback is atomic at line granularity: if a
//! later store to a line has persisted, all earlier stores to that line have
//! too. The reachable crash states at a point are therefore the product, over
//! cache lines, of an arbitrary *prefix* of that line's pending stores (at
//! least the forced prefix).
//!
//! HOPS: `dfence` forces everything before it durable; `ofence` only
//! constrains cross-line ordering and is conservatively ignored here (it can
//! only *remove* states, so ignoring it over-approximates reachability; see
//! DESIGN.md).
//!
//! # The crash log and the images built from it
//!
//! A [`CrashSim`] keeps its operations as a compact log: one small record
//! per op, with every write's bytes appended to a single payload slab, so
//! recording a write (see [`PmPool::begin_crash_recording`]) allocates
//! nothing of its own. A crash image is the *durable image* (the base plus
//! every forced piece) plus, per dirty cache line, a chosen prefix of that
//! line's pending pieces. Pieces never cross a line, so a state is built
//! line by line, and moving from one state to the next rewrites only the
//! lines whose choice changed ([`CrashChoices::step`],
//! [`CrashSampler::sample`]).
//!
//! A [`CrashCursor`] keeps one such *working image* for its whole sweep,
//! with each line's prefix choice, and keeps both in step with the durable
//! image as it advances: a piece forced past a line's choice is applied to
//! the working image too. A point therefore starts at its minimal image
//! without a copy: the one pass that counts its states and lists its open
//! lines (those with pending pieces beyond the forced prefix) also moves
//! back the lines a capped enumeration or a random draw left above their
//! forced prefix. An analysis built from scratch ([`CrashSim::analyze`])
//! gives each enumeration and sampler a working image of its own.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

use pmtest_interval::ByteRange;
use pmtest_trace::SourceLoc;
use rand::Rng;

use crate::cacheline::{align_to_lines, line_base, CACHE_LINE};
use crate::PmPool;

/// A PM operation with the data needed to materialize crash images: the
/// input of [`CrashSim::new`] and [`CrashSim::with_sites`].
///
/// The PMTest trace (deliberately, like the paper's) carries no store values;
/// the crash simulator keeps them in its log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValuedOp {
    /// A store of `data` at `range`.
    Write {
        /// Destination range.
        range: ByteRange,
        /// The bytes stored.
        data: Vec<u8>,
    },
    /// A `clwb` of the given range (expanded to cache lines).
    Flush(ByteRange),
    /// An `sfence`.
    Fence,
    /// A HOPS `dfence` (forces all prior writes durable).
    DFence,
}

/// One record of a crash log. A write's bytes sit in the log's payload
/// slab, starting at `at`.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LogOp {
    Write { range: ByteRange, at: usize },
    Flush(ByteRange),
    Fence,
    DFence,
}

/// A crash-state simulator over a recorded operation log.
#[derive(Clone)]
pub struct CrashSim {
    base: Vec<u8>,
    ops: Vec<LogOp>,
    /// Every write's bytes, in op order.
    payload: Vec<u8>,
    /// Source sites parallel to `ops`; empty when the recording carries no
    /// location information.
    sites: Vec<SourceLoc>,
}

/// How a workload validates a post-crash memory image.
///
/// Implementations run the workload's recovery procedure against `image` and
/// report the first consistency violation found.
pub trait RecoveryCheck {
    /// Validates one crash image.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the inconsistency, if any.
    fn check(&self, image: &[u8]) -> Result<(), String>;
}

impl<F> RecoveryCheck for F
where
    F: Fn(&[u8]) -> Result<(), String>,
{
    fn check(&self, image: &[u8]) -> Result<(), String> {
        self(image)
    }
}

/// A reachable inconsistent crash state found by [`CrashSim::find_violation`].
#[derive(Clone, Debug)]
pub struct Violation {
    /// Crash point (number of operations executed before the crash).
    pub point: usize,
    /// The inconsistency reported by the recovery check.
    pub reason: String,
    /// The offending memory image.
    pub image: Vec<u8>,
}

impl CrashSim {
    /// Creates a simulator from a pre-trace durable image and an operation
    /// log.
    ///
    /// # Panics
    ///
    /// Panics if a write's `data` is not as long as its range.
    #[must_use]
    pub fn new(base: Vec<u8>, ops: Vec<ValuedOp>) -> Self {
        Self::with_sites(base, ops, Vec::new())
    }

    /// Like [`new`](Self::new), additionally attaching the source site of
    /// each operation for culprit attribution in exploration reports.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is non-empty and its length differs from `ops`, or
    /// if a write's `data` is not as long as its range.
    #[must_use]
    pub fn with_sites(base: Vec<u8>, ops: Vec<ValuedOp>, sites: Vec<SourceLoc>) -> Self {
        assert!(
            sites.is_empty() || sites.len() == ops.len(),
            "sites must be empty or parallel to ops"
        );
        let mut sim = Self { base, ops: Vec::with_capacity(ops.len()), payload: Vec::new(), sites };
        for op in ops {
            let op = match op {
                ValuedOp::Write { range, data } => {
                    assert_eq!(data.len() as u64, range.len(), "write data must fill its range");
                    sim.push_write(range, &data);
                    continue;
                }
                ValuedOp::Flush(range) => LogOp::Flush(range),
                ValuedOp::Fence => LogOp::Fence,
                ValuedOp::DFence => LogOp::DFence,
            };
            sim.ops.push(op);
        }
        sim
    }

    /// Appends a write recorded at `loc`, its bytes to the payload slab.
    pub(crate) fn record_write(&mut self, range: ByteRange, data: &[u8], loc: SourceLoc) {
        self.push_write(range, data);
        self.sites.push(loc);
    }

    /// Appends a flush or fence recorded at `loc`.
    pub(crate) fn record(&mut self, op: LogOp, loc: SourceLoc) {
        debug_assert!(!matches!(op, LogOp::Write { .. }), "writes go through record_write");
        self.ops.push(op);
        self.sites.push(loc);
    }

    fn push_write(&mut self, range: ByteRange, data: &[u8]) {
        self.ops.push(LogOp::Write { range, at: self.payload.len() });
        self.payload.extend_from_slice(data);
    }

    /// Drains the crash recording of `pool`, if one was started; the pool
    /// stops recording.
    #[must_use]
    pub fn from_pool(pool: &PmPool) -> Option<Self> {
        pool.take_crash_log()
    }

    /// Number of recorded operations; crash points range over `0..=op_count`.
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The source site that issued operation `op_idx`, when the recording
    /// captured one.
    #[must_use]
    pub fn site(&self, op_idx: usize) -> Option<SourceLoc> {
        self.sites.get(op_idx).copied()
    }

    /// Crash points at ordering boundaries: one immediately *before* each
    /// `sfence`/`dfence`, plus the end of the trace.
    ///
    /// This is a covering set for reachability: within an epoch (between two
    /// fences) no write becomes forced, so the pending pieces at any interior
    /// point are a *prefix* of the pieces at the epoch's terminating fence
    /// point, with identical forced boundaries. Every image reachable at the
    /// interior point is therefore also reachable at the fence point (choose
    /// the same per-line prefixes), and enumerating only boundary points
    /// visits every reachable crash state of the whole trace.
    #[must_use]
    pub fn boundary_points(&self) -> Vec<usize> {
        let mut points: Vec<usize> = self
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, LogOp::Fence | LogOp::DFence))
            .map(|(idx, _)| idx)
            .collect();
        points.push(self.ops.len());
        points
    }

    /// Creates an incremental cursor positioned at crash point 0.
    #[must_use]
    pub fn cursor(&self) -> CrashCursor<'_> {
        CrashCursor {
            sim: self,
            point: 0,
            lines: Vec::new(),
            aux: Vec::new(),
            index: BTreeMap::new(),
            flushed: Vec::new(),
            durable: self.base.clone(),
            work: WorkingImage { image: self.base.clone(), prefixes: Vec::new() },
            open: Vec::new(),
            last_dfence: None,
            advanced_ops: 0,
            rebuilds: 0,
        }
    }

    /// The image with *all* writes applied (no crash).
    #[must_use]
    pub fn final_image(&self) -> Vec<u8> {
        let mut image = self.base.clone();
        for op in &self.ops {
            if let LogOp::Write { range, at } = *op {
                apply(&mut image, range, &self.payload[at..at + range.len() as usize]);
            }
        }
        image
    }

    /// Analyzes a crash immediately after `point` operations have executed.
    ///
    /// # Panics
    ///
    /// Panics if `point > op_count()`.
    #[must_use]
    pub fn analyze(&self, point: usize) -> CrashAnalysis<'_> {
        assert!(point <= self.ops.len(), "crash point out of range");
        // Split writes into per-line pieces, in program order.
        let mut lines: Vec<LinePending> = Vec::new();
        let find_line = |line: u64, lines: &mut Vec<LinePending>| -> usize {
            if let Some(i) = lines.iter().position(|l| l.line == line) {
                i
            } else {
                lines.push(LinePending { line, pieces: Vec::new(), forced: 0 });
                lines.len() - 1
            }
        };
        for (idx, op) in self.ops[..point].iter().enumerate() {
            if let LogOp::Write { range, .. } = *op {
                for line in crate::cacheline::lines(range) {
                    let li = find_line(line, &mut lines);
                    lines[li].pieces.push(Piece { op_idx: idx, range: clip(range, line) });
                }
            }
        }
        // Determine the forced boundary per line: the latest completed flush
        // (clwb followed by a fence before the crash) or dfence.
        let mut last_dfence: Option<usize> = None;
        for (idx, op) in self.ops[..point].iter().enumerate() {
            if matches!(op, LogOp::DFence) {
                last_dfence = Some(idx);
            }
        }
        for lp in &mut lines {
            let mut boundary: Option<usize> = last_dfence;
            for (idx, op) in self.ops[..point].iter().enumerate() {
                if let LogOp::Flush(r) = *op {
                    let covers = align_to_lines(r).contains_addr(lp.line);
                    let fenced = self.ops[idx + 1..point]
                        .iter()
                        .any(|o| matches!(o, LogOp::Fence | LogOp::DFence));
                    if covers && fenced {
                        boundary = Some(boundary.map_or(idx, |b| b.max(idx)));
                    }
                }
            }
            lp.forced = match boundary {
                Some(b) => lp.pieces.iter().filter(|p| p.op_idx < b).count(),
                None => 0,
            };
        }
        lines.retain(|l| !l.pieces.is_empty());
        let mut durable = self.base.clone();
        for lp in &lines {
            for p in &lp.pieces[..lp.forced] {
                self.apply_piece(&mut durable, p);
            }
        }
        let open: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].forced < lines[i].pieces.len()).collect();
        let state_count = open.iter().fold(1u128, |n, &i| {
            n.saturating_mul((lines[i].pieces.len() - lines[i].forced + 1) as u128)
        });
        CrashAnalysis {
            sim: self,
            lines: Cow::Owned(lines),
            durable: Cow::Owned(durable),
            open: Cow::Owned(open),
            state_count,
            lent: Cell::new(None),
        }
    }

    /// Stores `piece`'s bytes (its clip of the write's data) into `image`.
    fn apply_piece(&self, image: &mut [u8], piece: &Piece) {
        let LogOp::Write { range, at } = self.ops[piece.op_idx] else {
            unreachable!("pieces index writes")
        };
        let from = at + (piece.range.start() - range.start()) as usize;
        apply(image, piece.range, &self.payload[from..from + piece.range.len() as usize]);
    }

    /// Searches for a reachable crash state that fails `check`, visiting at
    /// most `max_states_per_point` states per crash point (exhaustively if
    /// the state space is smaller).
    pub fn find_violation(
        &self,
        check: &dyn RecoveryCheck,
        max_states_per_point: usize,
    ) -> Option<Violation> {
        for point in 0..=self.ops.len() {
            let analysis = self.analyze(point);
            let mut choices = analysis.enumerate();
            for _ in 0..max_states_per_point {
                let Some((image, _)) = choices.step() else { break };
                if let Err(reason) = check.check(image) {
                    return Some(Violation { point, reason, image: image.to_vec() });
                }
            }
        }
        None
    }

    /// Randomized variant of [`find_violation`](Self::find_violation): draws
    /// `samples_per_point` random reachable states per crash point.
    pub fn find_violation_sampled<R: Rng>(
        &self,
        check: &dyn RecoveryCheck,
        samples_per_point: usize,
        rng: &mut R,
    ) -> Option<Violation> {
        for point in 0..=self.ops.len() {
            let analysis = self.analyze(point);
            let mut sampler = analysis.sampler();
            for _ in 0..samples_per_point {
                let (image, _) = sampler.sample(rng);
                if let Err(reason) = check.check(image) {
                    return Some(Violation { point, reason, image: image.to_vec() });
                }
            }
        }
        None
    }
}

impl fmt::Debug for CrashSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashSim")
            .field("pool_size", &self.base.len())
            .field("ops", &self.ops.len())
            .finish()
    }
}

#[derive(Clone, Debug)]
struct Piece {
    op_idx: usize,
    range: ByteRange,
}

#[derive(Clone, Debug)]
struct LinePending {
    line: u64,
    pieces: Vec<Piece>,
    /// Pieces `[0, forced)` are guaranteed durable.
    forced: usize,
}

/// Per-line flush bookkeeping the cursor carries in addition to
/// [`LinePending`] (parallel vectors).
#[derive(Clone, Debug)]
struct LineAux {
    /// Latest completed-flush/dfence boundary: pieces with `op_idx` below it
    /// are forced.
    boundary: Option<usize>,
    /// Latest `clwb` covering this line whose completing fence has not yet
    /// been seen.
    pending_flush: Option<usize>,
}

/// An incremental crash-point analyzer that prefix-shares shadow state
/// between adjacent crash points.
///
/// [`CrashSim::analyze`] rescans `ops[..point]` on every call, which makes
/// visiting all crash points of a trace quadratic in its length. The cursor
/// instead keeps the per-line pending/forced state *live* and folds one
/// operation in per [`advance`](Self::advance), so an ascending sweep over
/// crash points replays each operation exactly once. Seeking backwards
/// rebuilds from scratch (counted in [`rebuilds`](Self::rebuilds)); callers
/// that sort their crash points never pay it.
///
/// The cursor also owns the *durable image*: the base plus every forced
/// piece, applied when the piece becomes forced, so a crash image is the
/// durable image plus each line's chosen pending pieces. Lines are indexed
/// by address: a write or a flush touches only its own lines, and a fence
/// visits only the lines with a pending flush.
///
/// Beside it the cursor keeps the sweep's one *working image* and each
/// line's prefix choice: a newly written line starts at prefix 0, and a
/// piece forced past a line's choice is applied to the working image as it
/// is to the durable one. Every point's states are stepped or drawn in
/// that image, so moving to the next point copies no image.
///
/// The cursor's [`analysis`](Self::analysis) borrows the live state instead
/// of cloning it, and is bit-for-bit equivalent to `analyze(point)` — the
/// equivalence is asserted across this module's tests and fuzzed by the
/// difftest proptests.
pub struct CrashCursor<'a> {
    sim: &'a CrashSim,
    point: usize,
    lines: Vec<LinePending>,
    aux: Vec<LineAux>,
    /// Line base address -> position in `lines` (first-write order).
    index: BTreeMap<u64, usize>,
    /// Positions of the lines whose `pending_flush` is set.
    flushed: Vec<usize>,
    /// The base plus every forced piece.
    durable: Vec<u8>,
    /// The working image, its prefixes parallel to `lines`.
    work: WorkingImage,
    /// The open lines at the current point, listed by `analysis`.
    open: Vec<usize>,
    last_dfence: Option<usize>,
    advanced_ops: u64,
    rebuilds: u64,
}

impl<'a> CrashCursor<'a> {
    /// The current crash point (operations folded in so far).
    #[must_use]
    pub fn point(&self) -> usize {
        self.point
    }

    /// Total operations folded in incrementally over the cursor's lifetime.
    #[must_use]
    pub fn advanced_ops(&self) -> u64 {
        self.advanced_ops
    }

    /// Times the cursor had to discard its state and rebuild from scratch
    /// (backward seeks).
    #[must_use]
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Moves the cursor to `point`, folding in only the delta when seeking
    /// forward. Returns `true` when the seek went backwards and forced a
    /// rebuild from operation 0.
    ///
    /// # Panics
    ///
    /// Panics if `point > op_count()`.
    pub fn seek(&mut self, point: usize) -> bool {
        assert!(point <= self.sim.ops.len(), "crash point out of range");
        let rebuilt = point < self.point;
        if rebuilt {
            self.point = 0;
            self.lines.clear();
            self.aux.clear();
            self.index.clear();
            self.flushed.clear();
            self.durable.copy_from_slice(&self.sim.base);
            self.work.image.copy_from_slice(&self.sim.base);
            self.work.prefixes.clear();
            self.last_dfence = None;
            self.rebuilds += 1;
        }
        while self.point < point {
            self.advance();
        }
        rebuilt
    }

    /// Folds in the next operation.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is already at the end of the trace.
    pub fn advance(&mut self) {
        let idx = self.point;
        let sim = self.sim;
        match sim.ops[idx] {
            LogOp::Write { range, .. } => {
                for line in crate::cacheline::lines(range) {
                    let li = match self.index.entry(line) {
                        Entry::Occupied(e) => *e.get(),
                        Entry::Vacant(e) => {
                            self.lines.push(LinePending { line, pieces: Vec::new(), forced: 0 });
                            // A line first written here starts at the last
                            // dfence boundary; it forces nothing (every piece
                            // is later) but mirrors the from-scratch scan.
                            self.aux
                                .push(LineAux { boundary: self.last_dfence, pending_flush: None });
                            self.work.prefixes.push(0);
                            *e.insert(self.lines.len() - 1)
                        }
                    };
                    self.lines[li].pieces.push(Piece { op_idx: idx, range: clip(range, line) });
                }
            }
            LogOp::Flush(r) => {
                // Flushes of lines never written need no bookkeeping: a
                // boundary at this index would force nothing, since every
                // later piece has a larger op index.
                let flushed = align_to_lines(r);
                for &li in self.index.range(flushed.start()..flushed.end()).map(|(_, li)| li) {
                    if self.aux[li].pending_flush.replace(idx).is_none() {
                        self.flushed.push(li);
                    }
                }
            }
            LogOp::Fence => {
                for k in 0..self.flushed.len() {
                    let li = self.flushed[k];
                    let aux = &mut self.aux[li];
                    let f = aux.pending_flush.take().expect("listed lines have a pending flush");
                    aux.boundary = Some(aux.boundary.map_or(f, |b| b.max(f)));
                    self.refresh_forced(li);
                }
                self.flushed.clear();
            }
            LogOp::DFence => {
                self.last_dfence = Some(idx);
                self.flushed.clear();
                for li in 0..self.lines.len() {
                    // Every earlier boundary lies below `idx`.
                    self.aux[li] = LineAux { boundary: Some(idx), pending_flush: None };
                    self.refresh_forced(li);
                }
            }
        }
        self.point += 1;
        self.advanced_ops += 1;
    }

    /// Advances line `li`'s forced prefix past every piece below its
    /// boundary, applying each newly forced piece to the durable image, and
    /// to the working image where it lies past the line's prefix (which
    /// then follows it). The forced prefix is monotone: boundaries only grow
    /// and pieces only append, so resuming from the previous value is exact.
    fn refresh_forced(&mut self, li: usize) {
        let Some(b) = self.aux[li].boundary else { return };
        let (l, prefix) = (&mut self.lines[li], &mut self.work.prefixes[li]);
        while l.forced < l.pieces.len() && l.pieces[l.forced].op_idx < b {
            let piece = &l.pieces[l.forced];
            self.sim.apply_piece(&mut self.durable, piece);
            if *prefix == l.forced {
                self.sim.apply_piece(&mut self.work.image, piece);
                *prefix += 1;
            }
            l.forced += 1;
        }
    }

    /// The crash analysis at the cursor's current point, borrowing the live
    /// shadow state and durable image (no per-point clone). Its first
    /// [`enumerate`](CrashAnalysis::enumerate) or
    /// [`sampler`](CrashAnalysis::sampler) steps the cursor's working image,
    /// which this call has moved to the point's minimal image; later ones
    /// build their own.
    #[must_use]
    pub fn analysis(&mut self) -> CrashAnalysis<'_> {
        let state_count = self.ready();
        CrashAnalysis {
            sim: self.sim,
            lines: Cow::Borrowed(&self.lines),
            durable: Cow::Borrowed(&self.durable),
            open: Cow::Borrowed(&self.open),
            state_count,
            lent: Cell::new(Some(&mut self.work)),
        }
    }

    /// Readies the current point in one pass over its lines: lists the open
    /// lines, counts the states, and moves every line that a capped
    /// enumeration or a draw left above its forced prefix back to it, so
    /// the working image is the point's minimal image.
    fn ready(&mut self) -> u128 {
        let at = PointLines { sim: self.sim, lines: &self.lines, durable: &self.durable };
        self.open.clear();
        let mut states = 1u128;
        for (i, l) in at.lines.iter().enumerate() {
            if l.forced == l.pieces.len() {
                continue;
            }
            self.open.push(i);
            states = states.saturating_mul((l.pieces.len() - l.forced + 1) as u128);
            if self.work.prefixes[i] > l.forced {
                self.work.set(at, i, l.forced);
            }
        }
        states
    }
}

impl fmt::Debug for CrashCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashCursor")
            .field("point", &self.point)
            .field("dirty_lines", &self.lines.len())
            .field("advanced_ops", &self.advanced_ops)
            .field("rebuilds", &self.rebuilds)
            .finish()
    }
}

/// The part of `range` inside the cache line at `line`.
fn clip(range: ByteRange, line: u64) -> ByteRange {
    range
        .intersection(&ByteRange::new(line, line + CACHE_LINE))
        .expect("line touched implies overlap")
}

/// The reachable crash states at one crash point.
pub struct CrashAnalysis<'a> {
    sim: &'a CrashSim,
    lines: Cow<'a, [LinePending]>,
    /// The base plus every forced piece: the minimal image.
    durable: Cow<'a, [u8]>,
    /// Lines with at least one pending piece, ascending.
    open: Cow<'a, [usize]>,
    state_count: u128,
    /// A cursor's working image, at this point's minimal image, until the
    /// first enumeration or sampler takes it.
    lent: Cell<Option<&'a mut WorkingImage>>,
}

impl CrashAnalysis<'_> {
    /// Number of cache lines with at least one write before the crash point.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.lines.len()
    }

    /// Number of distinct reachable crash states (saturating).
    #[must_use]
    pub fn state_count(&self) -> u128 {
        self.state_count
    }

    /// Per-dirty-line summary, in first-write order (the order `prefixes`
    /// vectors are parallel to): `(line base address, op indices of the
    /// line's pending pieces, forced prefix length)`. The first `forced`
    /// ops of each line are guaranteed durable; the rest may independently
    /// be lost.
    #[must_use]
    pub fn line_summaries(&self) -> Vec<(u64, Vec<usize>, usize)> {
        self.lines
            .iter()
            .map(|l| (l.line, l.pieces.iter().map(|p| p.op_idx).collect(), l.forced))
            .collect()
    }

    /// Whether `range` is guaranteed durable at this point (every written
    /// byte of it is in some line's forced prefix, or was never written).
    #[must_use]
    pub fn is_guaranteed_durable(&self, range: ByteRange) -> bool {
        for l in self.lines.iter() {
            for (i, p) in l.pieces.iter().enumerate() {
                if i >= l.forced && p.range.overlaps(&range) {
                    return false;
                }
            }
        }
        true
    }

    /// The image with only guaranteed-durable writes applied (the adversarial
    /// minimum).
    #[must_use]
    pub fn minimal_image(&self) -> Vec<u8> {
        self.durable.to_vec()
    }

    /// Iterates over all reachable crash images (odometer over per-line
    /// prefixes). The first yielded state is the minimal image.
    pub fn states(&self) -> CrashStates<'_> {
        CrashStates(self.enumerate())
    }

    /// Walks the same states as [`states`](Self::states), in the same order,
    /// lending each image with the per-line prefix choice that produced it
    /// (for culprit attribution via [`culprit_op`](Self::culprit_op)) instead
    /// of copying it out.
    pub fn enumerate(&self) -> CrashChoices<'_> {
        CrashChoices {
            at: self.point_lines(),
            open: &self.open,
            work: self.working_image(),
            started: false,
            done: false,
        }
    }

    /// A sampler drawing reachable states uniformly over per-line prefix
    /// choices, into one working image.
    pub fn sampler(&self) -> CrashSampler<'_> {
        CrashSampler { at: self.point_lines(), work: self.working_image() }
    }

    fn point_lines(&self) -> PointLines<'_> {
        PointLines { sim: self.sim, lines: &self.lines, durable: &self.durable }
    }

    /// The cursor's working image if no enumeration or sampler has taken it
    /// yet, else a new one at the minimal image.
    fn working_image(&self) -> Work<'_> {
        match self.lent.take() {
            Some(work) => Work::Lent(work),
            None => Work::Own(WorkingImage {
                image: self.durable.to_vec(),
                prefixes: self.lines.iter().map(|l| l.forced).collect(),
            }),
        }
    }

    /// The earliest write excluded from the image produced by `prefixes` —
    /// the first store whose loss distinguishes this crash image from the
    /// fully-persisted state. `None` when every piece is included (the image
    /// is the final image of this prefix).
    #[must_use]
    pub fn culprit_op(&self, prefixes: &[usize]) -> Option<usize> {
        self.lines
            .iter()
            .zip(prefixes)
            .filter_map(|(l, &k)| l.pieces.get(k).map(|p| p.op_idx))
            .min()
    }

    /// Materializes the image for one choice of per-line persist prefixes
    /// from scratch: clone the base, sort every selected piece since op 0 by
    /// op index, and apply them in that order. The reference the per-line
    /// rewrites are tested against.
    #[cfg(test)]
    fn image_for(&self, prefixes: &[usize]) -> Vec<u8> {
        debug_assert_eq!(prefixes.len(), self.lines.len());
        let mut selected: Vec<&Piece> = Vec::new();
        for (l, &k) in self.lines.iter().zip(prefixes) {
            selected.extend(&l.pieces[..k]);
        }
        selected.sort_by_key(|p| p.op_idx);
        let mut image = self.sim.base.clone();
        for p in selected {
            self.sim.apply_piece(&mut image, p);
        }
        image
    }
}

impl fmt::Debug for CrashAnalysis<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CrashAnalysis")
            .field("dirty_lines", &self.dirty_lines())
            .field("state_count", &self.state_count())
            .finish()
    }
}

/// The lines one point's states are built from.
#[derive(Clone, Copy)]
struct PointLines<'a> {
    sim: &'a CrashSim,
    lines: &'a [LinePending],
    durable: &'a [u8],
}

/// One crash image moved between states: each dirty line `i` of `image`
/// holds the base plus that line's first `prefixes[i]` pieces, and
/// `prefixes[i]` is at least the line's forced prefix.
struct WorkingImage {
    image: Vec<u8>,
    prefixes: Vec<usize>,
}

impl WorkingImage {
    /// Moves line `i` to its first `k` pieces, rewriting that line only. A
    /// longer prefix applies just the added pieces; a shorter one copies
    /// the line back from the durable image and re-applies its pending
    /// pieces up to `k`.
    fn set(&mut self, at: PointLines<'_>, i: usize, k: usize) {
        let l = &at.lines[i];
        let mut from = self.prefixes[i];
        if k < from {
            let start = l.line as usize;
            let end = (start + CACHE_LINE as usize).min(self.image.len());
            self.image[start..end].copy_from_slice(&at.durable[start..end]);
            from = l.forced;
        }
        for p in &l.pieces[from..k] {
            at.sim.apply_piece(&mut self.image, p);
        }
        self.prefixes[i] = k;
    }
}

/// The working image an enumeration or a sampler steps: a cursor's, lent,
/// or one of its own.
enum Work<'a> {
    Lent(&'a mut WorkingImage),
    Own(WorkingImage),
}

impl Work<'_> {
    fn get(&mut self) -> &mut WorkingImage {
        match self {
            Self::Lent(work) => work,
            Self::Own(work) => work,
        }
    }
}

/// Iterator over the reachable crash images of a [`CrashAnalysis`].
pub struct CrashStates<'a>(CrashChoices<'a>);

impl Iterator for CrashStates<'_> {
    type Item = Vec<u8>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.step().map(|(image, _)| image.to_vec())
    }
}

/// Enumeration of reachable crash states with their prefix choices
/// ([`CrashAnalysis::enumerate`]).
///
/// The enumeration keeps one working image. Each [`step`](Self::step)
/// moves the odometer over per-line prefixes (first-written line fastest)
/// and rewrites only the lines whose digit changed: an advanced digit
/// applies its line's next pending piece, a digit that wraps copies its
/// line back from the durable image. A full enumeration ends with every
/// digit wrapped, back at the minimal image.
pub struct CrashChoices<'a> {
    at: PointLines<'a>,
    /// Lines with at least one pending piece, ascending: the only digits
    /// that ever move (a fully forced line always carries).
    open: &'a [usize],
    work: Work<'a>,
    started: bool,
    done: bool,
}

impl CrashChoices<'_> {
    /// Moves to the next reachable state and borrows its image and per-line
    /// prefix choice (one persisted-piece count per dirty line, in
    /// first-write order); `None` once every state has been visited. The
    /// first state is the minimal image.
    pub fn step(&mut self) -> Option<(&[u8], &[usize])> {
        if self.done {
            return None;
        }
        let work = self.work.get();
        if self.started {
            let mut carried = true;
            for &i in self.open {
                let l = &self.at.lines[i];
                let k = work.prefixes[i];
                if k < l.pieces.len() {
                    work.set(self.at, i, k + 1);
                    carried = false;
                    break;
                }
                work.set(self.at, i, l.forced);
            }
            if carried {
                self.done = true;
                return None;
            }
        }
        self.started = true;
        Some((&work.image, &work.prefixes))
    }
}

/// Random draws of reachable crash states ([`CrashAnalysis::sampler`]),
/// kept in one working image.
pub struct CrashSampler<'a> {
    at: PointLines<'a>,
    work: Work<'a>,
}

impl CrashSampler<'_> {
    /// Draws the next state — for each dirty line in first-write order, a
    /// prefix uniform over `forced..=pieces` — and borrows its image and
    /// prefix choice. Only the lines whose choice changed since the last
    /// draw are rewritten.
    pub fn sample<R: Rng>(&mut self, rng: &mut R) -> (&[u8], &[usize]) {
        let work = self.work.get();
        for (i, l) in self.at.lines.iter().enumerate() {
            let k = rng.gen_range(l.forced..=l.pieces.len());
            if k != work.prefixes[i] {
                work.set(self.at, i, k);
            }
        }
        (&work.image, &work.prefixes)
    }
}

fn apply(image: &mut [u8], range: ByteRange, data: &[u8]) {
    let start = range.start() as usize;
    let end = range.end() as usize;
    assert!(end <= image.len(), "write beyond recorded image");
    image[start..end].copy_from_slice(data);
}

/// Convenience: whether `addr`'s line equals `line` (used by tests).
#[must_use]
pub fn same_line(a: u64, b: u64) -> bool {
    line_base(a) == line_base(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn w(addr: u64, data: &[u8]) -> ValuedOp {
        ValuedOp::Write { range: ByteRange::with_len(addr, data.len() as u64), data: data.to_vec() }
    }

    fn fl(addr: u64, len: u64) -> ValuedOp {
        ValuedOp::Flush(ByteRange::with_len(addr, len))
    }

    #[test]
    fn no_ops_single_state() {
        let sim = CrashSim::new(vec![0; 64], vec![]);
        let a = sim.analyze(0);
        assert_eq!(a.state_count(), 1);
        assert_eq!(a.states().count(), 1);
        assert_eq!(a.minimal_image(), vec![0; 64]);
    }

    #[test]
    fn unflushed_write_may_or_may_not_persist() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[7])]);
        let a = sim.analyze(1);
        assert_eq!(a.state_count(), 2);
        let states: Vec<Vec<u8>> = a.states().collect();
        assert_eq!(states[0][0], 0, "minimal state first");
        assert_eq!(states[1][0], 7);
        assert!(!a.is_guaranteed_durable(ByteRange::new(0, 1)));
    }

    #[test]
    fn flush_plus_fence_forces_durability() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[7]), fl(0, 1), ValuedOp::Fence]);
        let a = sim.analyze(3);
        assert_eq!(a.state_count(), 1);
        assert_eq!(a.states().next().unwrap()[0], 7);
        assert!(a.is_guaranteed_durable(ByteRange::new(0, 1)));
    }

    #[test]
    fn flush_without_fence_does_not_force() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[7]), fl(0, 1)]);
        let a = sim.analyze(2);
        assert_eq!(a.state_count(), 2);
        assert!(!a.is_guaranteed_durable(ByteRange::new(0, 1)));
    }

    #[test]
    fn write_after_flush_is_not_covered_by_it() {
        // write A; clwb; write B (same line); sfence — B persisted only maybe.
        let sim =
            CrashSim::new(vec![0; 64], vec![w(0, &[1]), fl(0, 1), w(1, &[2]), ValuedOp::Fence]);
        let a = sim.analyze(4);
        assert!(a.is_guaranteed_durable(ByteRange::new(0, 1)));
        assert!(!a.is_guaranteed_durable(ByteRange::new(1, 2)));
        assert_eq!(a.state_count(), 2);
    }

    #[test]
    fn same_line_prefix_constraint() {
        // Two pending writes to the same line: the state where only the
        // *second* persisted is unreachable.
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[1]), w(1, &[2])]);
        let a = sim.analyze(2);
        assert_eq!(a.state_count(), 3);
        let states: Vec<(u8, u8)> = a.states().map(|s| (s[0], s[1])).collect();
        assert!(states.contains(&(0, 0)));
        assert!(states.contains(&(1, 0)));
        assert!(states.contains(&(1, 2)));
        assert!(!states.contains(&(0, 2)), "later-without-earlier unreachable");
    }

    #[test]
    fn different_lines_are_independent() {
        let sim = CrashSim::new(vec![0; 256], vec![w(0, &[1]), w(128, &[2])]);
        let a = sim.analyze(2);
        assert_eq!(a.dirty_lines(), 2);
        assert_eq!(a.state_count(), 4);
        let states: Vec<(u8, u8)> = a.states().map(|s| (s[0], s[128])).collect();
        assert_eq!(states.len(), 4);
        assert!(states.contains(&(0, 2)), "cross-line any order reachable");
    }

    #[test]
    fn straddling_write_splits_per_line() {
        let data: Vec<u8> = (0..8).collect();
        let sim = CrashSim::new(vec![0; 128], vec![w(60, &data)]);
        let a = sim.analyze(1);
        assert_eq!(a.dirty_lines(), 2);
        // Each line independently may hold its piece.
        assert_eq!(a.state_count(), 4);
        let full = sim.final_image();
        assert_eq!(&full[60..68], &data[..]);
    }

    #[test]
    fn dfence_forces_all_prior_writes() {
        let sim = CrashSim::new(vec![0; 256], vec![w(0, &[1]), w(128, &[2]), ValuedOp::DFence]);
        let a = sim.analyze(3);
        assert_eq!(a.state_count(), 1);
        assert!(a.is_guaranteed_durable(ByteRange::new(0, 129)));
    }

    #[test]
    fn crash_before_trace_end_ignores_later_ops() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[7]), fl(0, 1), ValuedOp::Fence]);
        let a = sim.analyze(1); // crash before the flush
        assert_eq!(a.state_count(), 2);
    }

    #[test]
    fn overwrites_within_line_yield_intermediate_states() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[1]), w(0, &[2])]);
        let a = sim.analyze(2);
        let vals: Vec<u8> = a.states().map(|s| s[0]).collect();
        assert_eq!(vals, [0, 1, 2]);
    }

    #[test]
    fn find_violation_detects_missing_barrier() {
        // valid flag set before data guaranteed durable (Fig. 1a bug shape):
        // write data; write valid=1; clwb both; sfence — reachable state has
        // valid=1 with stale data when they sit in different lines.
        let ops = vec![
            w(0, &[0xAA]), // data in line 0
            w(64, &[1]),   // valid flag in line 1
            fl(0, 1),
            fl(64, 1),
            ValuedOp::Fence,
        ];
        let sim = CrashSim::new(vec![0; 128], ops);
        let check = |image: &[u8]| -> Result<(), String> {
            if image[64] == 1 && image[0] != 0xAA {
                Err("valid flag set but data stale".to_owned())
            } else {
                Ok(())
            }
        };
        let v = sim.find_violation(&check, 1_000).expect("bug is reachable");
        assert!(v.reason.contains("stale"));
        assert!(v.point < 5);
    }

    #[test]
    fn find_violation_clean_on_correct_ordering() {
        // Correct version: persist data first, then set valid.
        let ops =
            vec![w(0, &[0xAA]), fl(0, 1), ValuedOp::Fence, w(64, &[1]), fl(64, 1), ValuedOp::Fence];
        let sim = CrashSim::new(vec![0; 128], ops);
        let check = |image: &[u8]| -> Result<(), String> {
            if image[64] == 1 && image[0] != 0xAA {
                Err("valid flag set but data stale".to_owned())
            } else {
                Ok(())
            }
        };
        assert!(sim.find_violation(&check, 10_000).is_none());
        let mut rng = SmallRng::seed_from_u64(42);
        assert!(sim.find_violation_sampled(&check, 64, &mut rng).is_none());
    }

    #[test]
    fn sampled_states_are_reachable() {
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[1]), w(1, &[2])]);
        let a = sim.analyze(2);
        let reachable: Vec<Vec<u8>> = a.states().collect();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sampler = a.sampler();
        for _ in 0..50 {
            let (image, _) = sampler.sample(&mut rng);
            assert!(reachable.iter().any(|s| s == image));
        }
    }

    #[test]
    fn same_line_helper() {
        assert!(same_line(0, 63));
        assert!(!same_line(63, 64));
    }

    /// Op sequences that exercise every cursor transition: straddling
    /// writes, flush-before-write, flush-without-fence, dfence seeding,
    /// overwrites, and multi-line interleavings.
    fn cursor_fixtures() -> Vec<CrashSim> {
        let data: Vec<u8> = (0..8).collect();
        vec![
            CrashSim::new(vec![0; 64], vec![]),
            CrashSim::new(vec![0; 64], vec![w(0, &[7]), fl(0, 1), ValuedOp::Fence]),
            CrashSim::new(
                vec![0; 128],
                vec![
                    fl(0, 1), // flush before any write to the line
                    w(0, &[1]),
                    fl(0, 1),
                    w(1, &[2]), // write after flush, same line
                    ValuedOp::Fence,
                    w(64, &[3]),
                    fl(64, 1),
                    fl(64, 1), // double flush
                    ValuedOp::Fence,
                    ValuedOp::Fence, // fence with no pending flush
                ],
            ),
            CrashSim::new(
                vec![0; 256],
                vec![
                    w(0, &[1]),
                    w(128, &[2]),
                    ValuedOp::DFence,
                    w(64, &[3]), // line first written after the dfence
                    w(0, &[4]),
                    fl(0, 1),
                    ValuedOp::DFence,
                    w(60, &data), // straddles lines 0 and 1
                    fl(60, 8),
                    ValuedOp::Fence,
                ],
            ),
            CrashSim::new(
                vec![0; 64],
                vec![w(0, &[1]), fl(0, 1), w(1, &[2]), ValuedOp::Fence, w(2, &[3]), fl(0, 64)],
            ),
        ]
    }

    /// Collects the full behavioural surface of an analysis for equality
    /// checks: dirty lines, state count, forced image, and all states.
    fn fingerprint(a: &CrashAnalysis<'_>) -> (usize, u128, Vec<u8>, Vec<Vec<u8>>) {
        (a.dirty_lines(), a.state_count(), a.minimal_image(), a.states().take(4096).collect())
    }

    #[test]
    fn cursor_matches_analyze_at_every_point() {
        for sim in cursor_fixtures() {
            let mut cursor = sim.cursor();
            for point in 0..=sim.op_count() {
                let rebuilt = cursor.seek(point);
                assert!(!rebuilt, "ascending seeks never rebuild");
                let inc = fingerprint(&cursor.analysis());
                let fresh = fingerprint(&sim.analyze(point));
                assert_eq!(inc, fresh, "cursor diverged from analyze at point {point}");
            }
        }
    }

    #[test]
    fn cursor_backward_seek_rebuilds_and_matches() {
        let sim = cursor_fixtures().pop().unwrap();
        let mut cursor = sim.cursor();
        cursor.seek(sim.op_count());
        assert_eq!(cursor.rebuilds(), 0);
        let rebuilt = cursor.seek(2);
        assert!(rebuilt);
        assert_eq!(cursor.rebuilds(), 1);
        assert_eq!(fingerprint(&cursor.analysis()), fingerprint(&sim.analyze(2)));
    }

    #[test]
    fn cursor_ascending_sweep_replays_each_op_once() {
        let sim = cursor_fixtures().pop().unwrap();
        let mut cursor = sim.cursor();
        for point in sim.boundary_points() {
            cursor.seek(point);
        }
        assert_eq!(cursor.advanced_ops(), sim.op_count() as u64);
        assert_eq!(cursor.rebuilds(), 0);
    }

    #[test]
    fn boundary_points_cover_all_reachable_states() {
        for sim in cursor_fixtures() {
            let boundaries = sim.boundary_points();
            let mut at_boundaries: Vec<Vec<u8>> = Vec::new();
            for &p in &boundaries {
                at_boundaries.extend(sim.analyze(p).states().take(4096));
            }
            for point in 0..=sim.op_count() {
                for state in sim.analyze(point).states().take(4096) {
                    assert!(
                        at_boundaries.contains(&state),
                        "state at interior point {point} missing from boundary enumeration"
                    );
                }
            }
        }
    }

    #[test]
    fn enumerate_exposes_prefix_choices_and_culprits() {
        // Two pending writes to one line: the choice excluding both blames
        // the first write; excluding only the second blames the second.
        let sim = CrashSim::new(vec![0; 64], vec![w(0, &[1]), w(1, &[2])]);
        let a = sim.analyze(2);
        let mut choices = a.enumerate();
        let mut culprits = Vec::new();
        while let Some((image, prefixes)) = choices.step() {
            assert_eq!(image, a.image_for(prefixes));
            culprits.push(a.culprit_op(prefixes));
        }
        // All lost blames op 0, the second lost blames op 1, and the
        // complete image has no culprit.
        assert_eq!(culprits, [Some(0), Some(1), None]);
    }

    #[test]
    fn sampled_choices_reproduce_their_images() {
        let sim = CrashSim::new(vec![0; 128], vec![w(0, &[1]), w(64, &[2]), w(1, &[3])]);
        let a = sim.analyze(3);
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sampler = a.sampler();
        for _ in 0..32 {
            let (image, prefixes) = sampler.sample(&mut rng);
            assert_eq!(image, a.image_for(prefixes));
        }
    }

    /// The first `limit` prefix choices in reference order: an odometer over
    /// every line in first-write order, lowest line fastest.
    fn reference_choices(a: &CrashAnalysis<'_>, limit: usize) -> Vec<Vec<usize>> {
        let mut odometer: Vec<usize> = a.lines.iter().map(|l| l.forced).collect();
        let mut out = Vec::new();
        while out.len() < limit {
            out.push(odometer.clone());
            let mut i = 0;
            loop {
                if i == odometer.len() {
                    return out;
                }
                if odometer[i] < a.lines[i].pieces.len() {
                    odometer[i] += 1;
                    break;
                }
                odometer[i] = a.lines[i].forced;
                i += 1;
            }
        }
        out
    }

    /// States compared per crash point.
    const STATE_LIMIT: usize = 96;

    /// Asserts that every state of `a`, from `step` and from `states()`, is
    /// the reference image of its prefixes, in reference order; that a
    /// per-point state cap keeps exactly the
    /// reference's first states; and that seeded draws pick the reference's
    /// prefixes and images.
    fn assert_matches_reference(a: &CrashAnalysis<'_>, at: &str) {
        let want = reference_choices(a, STATE_LIMIT);
        assert_eq!(want.len() as u128, a.state_count().min(STATE_LIMIT as u128), "{at}");
        assert_eq!(a.minimal_image(), a.image_for(&want[0]), "{at}: minimal image");
        let mut choices = a.enumerate();
        for (n, prefixes) in want.iter().enumerate() {
            let (image, got) = choices.step().unwrap_or_else(|| panic!("{at}: ended at {n}"));
            assert_eq!(got, &prefixes[..], "{at}: state {n} out of order");
            assert_eq!(image, &a.image_for(prefixes)[..], "{at}: state {n} image");
        }
        if want.len() < STATE_LIMIT {
            assert!(choices.step().is_none(), "{at}: extra state");
            assert!(choices.step().is_none(), "{at}: enumeration restarted");
        }
        let owned: Vec<Vec<u8>> = a.states().take(STATE_LIMIT).collect();
        assert_eq!(owned.len(), want.len(), "{at}");
        for (image, prefixes) in owned.iter().zip(&want) {
            assert_eq!(image, &a.image_for(prefixes), "{at}");
        }
        for cap in [1, 2, 3, 7] {
            let mut choices = a.enumerate();
            let mut kept = Vec::new();
            while kept.len() < cap {
                let Some((_, prefixes)) = choices.step() else { break };
                kept.push(prefixes.to_vec());
            }
            assert_eq!(kept[..], want[..cap.min(want.len())], "{at}: cap {cap}");
        }
        // The draws the sampler replaced: per line, in first-write order,
        // a prefix in `forced..=pieces` from the same generator.
        let (mut rng, mut reference_rng) = (SmallRng::seed_from_u64(5), SmallRng::seed_from_u64(5));
        let mut sampler = a.sampler();
        for n in 0..16 {
            let want: Vec<usize> = a
                .lines
                .iter()
                .map(|l| reference_rng.gen_range(l.forced..=l.pieces.len()))
                .collect();
            let (image, got) = sampler.sample(&mut rng);
            assert_eq!(got, &want[..], "{at}: draw {n}");
            assert_eq!(image, &a.image_for(&want)[..], "{at}: draw {n} image");
        }
    }

    /// Checks `analyze(point)` and a cursor against the reference at every
    /// point: ascending seeks, then one backward seek.
    fn assert_sim_matches_reference(sim: &CrashSim) {
        let mut cursor = sim.cursor();
        for point in 0..=sim.op_count() {
            let fresh = sim.analyze(point);
            assert_matches_reference(&fresh, &format!("analyze({point})"));
            assert!(!cursor.seek(point));
            assert_eq!(cursor.analysis().line_summaries(), fresh.line_summaries(), "at {point}");
            assert_matches_reference(&cursor.analysis(), &format!("cursor at {point}"));
        }
        let back = sim.op_count() / 2;
        if back < sim.op_count() {
            assert!(cursor.seek(back), "backward seek rebuilds");
            let fresh = sim.analyze(back);
            assert_eq!(cursor.analysis().line_summaries(), fresh.line_summaries(), "at {back}");
            assert_matches_reference(&cursor.analysis(), &format!("cursor back at {back}"));
        }
    }

    /// Builds a program over a `base_len`-byte base from raw draws. Writes
    /// carry a fill unique to their op, so every image is distinguishable.
    fn generated_sim(base_len: usize, raw: &[(u8, u16, u8)]) -> CrashSim {
        let len = base_len as u64;
        let mut ops = Vec::new();
        let mut last_write: Option<ByteRange> = None;
        for (i, &(kind, at, size)) in raw.iter().enumerate() {
            let addr = u64::from(at) % len;
            let fill = |r: ByteRange| ValuedOp::Write {
                range: r,
                data: (0..r.len())
                    .map(|b| (i as u8).wrapping_mul(31).wrapping_add(b as u8) | 1)
                    .collect(),
            };
            let op = match (kind % 12, last_write) {
                (0..=3, _) => {
                    fill(ByteRange::with_len(addr, 1 + u64::from(size) % (len - addr).min(16)))
                }
                // Straddles the line boundary nearest above `addr`, clipped
                // to the base.
                (4, _) if len > CACHE_LINE => {
                    let edge = (line_base(addr) + CACHE_LINE).min(line_base(len - 1));
                    let edge = edge.max(CACHE_LINE);
                    fill(ByteRange::new(
                        edge - 1 - u64::from(size) % 8,
                        (edge + 1 + u64::from(size) % 8).min(len),
                    ))
                }
                // Overwrites the previous write's bytes.
                (5, Some(prev)) => fill(prev),
                (4..=7, _) => ValuedOp::Flush(ByteRange::with_len(addr, 1 + u64::from(size) % 128)),
                (8 | 9, _) => ValuedOp::Fence,
                _ => ValuedOp::DFence,
            };
            if let ValuedOp::Write { range, .. } = &op {
                last_write = Some(*range);
            }
            ops.push(op);
        }
        CrashSim::new(vec![0xee; base_len], ops)
    }

    #[test]
    fn every_state_matches_the_reference_on_fixtures() {
        for sim in cursor_fixtures() {
            assert_sim_matches_reference(&sim);
        }
        // Every transition on one program over a 200-byte base, whose last
        // line (192..200) is clipped: straddling writes (60..68, 190..196),
        // same-line overwrites, flush before write, a flush with no fence, a
        // fence with no pending flush, and a dfence.
        let data: Vec<u8> = (1..=8).collect();
        let sim = CrashSim::new(
            vec![0xee; 200],
            vec![
                fl(0, 1),
                w(0, &[1]),
                w(60, &data),
                w(0, &[2]),
                fl(0, 64),
                ValuedOp::Fence,
                ValuedOp::Fence,
                w(190, &data[..6]),
                w(199, &[3]),
                w(130, &[4]),
                fl(128, 72),
                w(64, &[5]),
                ValuedOp::Fence,
                w(199, &[6]),
                fl(192, 8),
                ValuedOp::DFence,
                w(195, &[7]),
                w(1, &[8]),
                fl(0, 200),
            ],
        );
        assert_sim_matches_reference(&sim);
    }

    /// Walks one cursor over every point of `sim` and then seeks back to
    /// the middle. Each visit takes its turn in `plan`: `(false, n)`
    /// enumerates the point's first `n` states, `(true, n)` draws `n`
    /// samples, so most points start from a working image the visit before
    /// left above the minimal image. Every lent state is the reference
    /// image of its prefixes; enumerated states come in reference order,
    /// the first being the minimal image.
    fn assert_carried_image_matches_reference(sim: &CrashSim, plan: &[(bool, u8)]) {
        let mut cursor = sim.cursor();
        let mut rng = SmallRng::seed_from_u64(3);
        let back = sim.op_count() / 2;
        for (visit, point) in (0..=sim.op_count()).chain([back]).enumerate() {
            let at = format!("visit {visit} at point {point}");
            let backward = point < cursor.point();
            assert_eq!(cursor.seek(point), backward, "{at}");
            let fresh = sim.analyze(point);
            let a = cursor.analysis();
            let (draw, n) = plan[visit % plan.len()];
            if draw {
                let mut sampler = a.sampler();
                for _ in 0..n {
                    let (image, prefixes) = sampler.sample(&mut rng);
                    assert_eq!(image, fresh.image_for(prefixes), "{at}: draw");
                }
                continue;
            }
            let mut choices = a.enumerate();
            for (s, want) in reference_choices(&fresh, usize::from(n)).iter().enumerate() {
                let (image, prefixes) = choices.step().expect("the reference has this state");
                assert_eq!(prefixes, &want[..], "{at}: state {s} out of order");
                assert_eq!(image, fresh.image_for(prefixes), "{at}: state {s}");
                if s == 0 {
                    assert_eq!(image, fresh.minimal_image(), "{at}: first state");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Generated op logs over bases of one to four lines plus 0..64
        /// bytes: every state of every point, from `analyze` and from a
        /// cursor, is the reference image in reference order, and every
        /// seeded draw is the reference's draw.
        #[test]
        fn every_state_matches_the_reference_on_generated_logs(
            lines in 1..5usize,
            extra in 0..64usize,
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
                0..20,
            ),
        ) {
            let base_len = lines * CACHE_LINE as usize + extra;
            assert_sim_matches_reference(&generated_sim(base_len, &raw));
        }

        /// The same logs walked by one cursor whose working image carries
        /// across points: capped enumerations and draws leave lines above
        /// their forced prefix, and the next point still starts at its
        /// minimal image.
        #[test]
        fn a_carried_working_image_matches_the_reference_on_generated_logs(
            lines in 1..5usize,
            extra in 0..64usize,
            raw in proptest::collection::vec(
                (proptest::prelude::any::<u8>(), proptest::prelude::any::<u16>(), proptest::prelude::any::<u8>()),
                0..20,
            ),
            plan in proptest::collection::vec((proptest::prelude::any::<bool>(), 1..5u8), 1..6),
        ) {
            let base_len = lines * CACHE_LINE as usize + extra;
            assert_carried_image_matches_reference(&generated_sim(base_len, &raw), &plan);
        }
    }

    #[test]
    fn the_log_keeps_every_write_in_one_payload_slab() {
        let sim = CrashSim::new(
            vec![0; 128],
            vec![w(0, &[1, 2]), fl(0, 2), ValuedOp::Fence, w(70, &[3, 4, 5]), ValuedOp::DFence],
        );
        assert_eq!(sim.payload, [1, 2, 3, 4, 5]);
        assert!(matches!(sim.ops[3], LogOp::Write { at: 2, .. }));
        let image = sim.final_image();
        assert_eq!((image[..2].to_vec(), image[70..73].to_vec()), (vec![1, 2], vec![3, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "write data must fill its range")]
    fn a_write_whose_data_misses_its_range_is_refused() {
        let op = ValuedOp::Write { range: ByteRange::with_len(0, 4), data: vec![1] };
        let _ = CrashSim::new(vec![0; 64], vec![op]);
    }

    #[test]
    fn sites_attach_to_ops() {
        let loc = SourceLoc::new("app.rs", 42);
        let sim = CrashSim::with_sites(vec![0; 64], vec![w(0, &[1])], vec![loc]);
        assert_eq!(sim.site(0), Some(loc));
        assert_eq!(sim.site(1), None);
        let plain = CrashSim::new(vec![0; 64], vec![w(0, &[1])]);
        assert_eq!(plain.site(0), None);
    }
}
