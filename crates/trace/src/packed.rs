//! Compact binary trace encoding: fixed-width packed records and the
//! process-wide source-location table.
//!
//! The enum-of-structs [`Entry`] is ergonomic to record but expensive to
//! ship: with two embedded [`ByteRange`]s and a `&'static str` location it
//! is 56 bytes of pointer-carrying payload per event. The packed form fixes
//! the width at three `u64` words per record —
//!
//! | word | bits    | field                                    |
//! |------|---------|------------------------------------------|
//! | 0    | 0..8    | opcode ([`PackedOp`])                    |
//! | 0    | 8..40   | interned [`SourceLoc`] id (32 bits)      |
//! | 0    | 40..64  | reserved (zero)                          |
//! | 1    | 0..64   | range start (zero for range-less ops)    |
//! | 2    | 0..64   | range end (zero for range-less ops)      |
//!
//! — with the location interned *at record time* into a process-wide
//! append-only table, so a record is `Copy`, pointer-free, and exactly
//! [`PACKED_ENTRY_BYTES`] wide. `isOrderedBefore` is the one two-operand
//! event; it encodes as its own record followed by one
//! [`PackedOp::Operand`] continuation record carrying the second range.
//!
//! The id is the one form of a location from record to report: the checker
//! keeps it in its shadow state ([`decode_event`] hands it over unresolved)
//! and resolves it through a [`LocResolver`] — a cheap per-worker mirror of
//! the global table — only when a diagnostic needs the location. The table
//! is append-only, so a mirror only ever copies the tail it has not seen.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

use parking_lot::{Mutex, RwLock};
use pmtest_interval::ByteRange;

use crate::event::{Entry, Event, SourceLoc};

/// Exact size of one packed record, in bytes. Guarded by a static assertion
/// so the record cannot silently grow.
pub const PACKED_ENTRY_BYTES: usize = 24;

/// One fixed-width trace record: three `u64` words (opcode + location id,
/// range start, range end). See the module docs for the layout.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(C)]
pub struct PackedEntry {
    meta: u64,
    lo: u64,
    hi: u64,
}

// The whole point of the packed form: fixed width, u64-aligned, no growth.
const _: () = assert!(std::mem::size_of::<PackedEntry>() == PACKED_ENTRY_BYTES);
const _: () = assert!(std::mem::align_of::<PackedEntry>() == 8);

/// Opcode of a [`PackedEntry`]. Values are part of the encoding and must
/// not be reordered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum PackedOp {
    /// [`Event::Write`].
    Write = 0,
    /// [`Event::Flush`].
    Flush = 1,
    /// [`Event::Fence`].
    Fence = 2,
    /// [`Event::OFence`].
    OFence = 3,
    /// [`Event::DFence`].
    DFence = 4,
    /// [`Event::TxBegin`].
    TxBegin = 5,
    /// [`Event::TxEnd`].
    TxEnd = 6,
    /// [`Event::TxAdd`].
    TxAdd = 7,
    /// [`Event::IsPersist`].
    IsPersist = 8,
    /// [`Event::IsOrderedBefore`] — followed by one [`PackedOp::Operand`]
    /// record carrying the second range.
    IsOrderedBefore = 9,
    /// [`Event::TxCheckerStart`].
    TxCheckerStart = 10,
    /// [`Event::TxCheckerEnd`].
    TxCheckerEnd = 11,
    /// [`Event::Exclude`].
    Exclude = 12,
    /// [`Event::Include`].
    Include = 13,
    /// Continuation record: the second range of the preceding
    /// [`PackedOp::IsOrderedBefore`]. Never the first record of an event.
    Operand = 14,
}

impl PackedOp {
    fn from_u8(v: u8) -> PackedOp {
        match v {
            0 => PackedOp::Write,
            1 => PackedOp::Flush,
            2 => PackedOp::Fence,
            3 => PackedOp::OFence,
            4 => PackedOp::DFence,
            5 => PackedOp::TxBegin,
            6 => PackedOp::TxEnd,
            7 => PackedOp::TxAdd,
            8 => PackedOp::IsPersist,
            9 => PackedOp::IsOrderedBefore,
            10 => PackedOp::TxCheckerStart,
            11 => PackedOp::TxCheckerEnd,
            12 => PackedOp::Exclude,
            13 => PackedOp::Include,
            14 => PackedOp::Operand,
            other => unreachable!("invalid packed opcode {other}"),
        }
    }
}

impl PackedEntry {
    fn new(op: PackedOp, loc_id: u32, range: ByteRange) -> Self {
        Self { meta: (op as u64) | (u64::from(loc_id) << 8), lo: range.start(), hi: range.end() }
    }

    /// The record's opcode.
    #[must_use]
    pub fn op(&self) -> PackedOp {
        PackedOp::from_u8((self.meta & 0xff) as u8)
    }

    /// The interned id of the issuing source location.
    #[must_use]
    pub fn loc_id(&self) -> u32 {
        (self.meta >> 8) as u32
    }

    /// Range start word (zero for range-less opcodes).
    #[must_use]
    pub fn lo(&self) -> u64 {
        self.lo
    }

    /// Range end word (zero for range-less opcodes).
    #[must_use]
    pub fn hi(&self) -> u64 {
        self.hi
    }

    /// The encoded range. Meaningful only for opcodes that carry one.
    #[must_use]
    pub fn range(&self) -> ByteRange {
        ByteRange::new(self.lo, self.hi)
    }
}

// ---------------------------------------------------------------------------
// Process-wide source-location table
// ---------------------------------------------------------------------------

struct GlobalLocs {
    /// Append-only; an id, once handed out, resolves forever.
    table: RwLock<Vec<SourceLoc>>,
    /// Dedup index, only touched on a thread-cache miss.
    index: Mutex<HashMap<SourceLoc, u32>>,
}

fn global() -> &'static GlobalLocs {
    static LOCS: OnceLock<GlobalLocs> = OnceLock::new();
    LOCS.get_or_init(|| GlobalLocs {
        table: RwLock::new(Vec::new()),
        index: Mutex::new(HashMap::new()),
    })
}

/// Per-thread cache of recently interned locations. A recording thread
/// replays the same few call sites over and over; a short linear scan keeps
/// the global table off the record path entirely in steady state.
const THREAD_CACHE_MAX: usize = 128;

thread_local! {
    static LOC_CACHE: RefCell<Vec<(SourceLoc, u32)>> = const { RefCell::new(Vec::new()) };
}

fn intern_uncached(loc: SourceLoc) -> u32 {
    let g = global();
    let mut index = g.index.lock();
    if let Some(&id) = index.get(&loc) {
        return id;
    }
    let mut table = g.table.write();
    let id = u32::try_from(table.len()).expect("more than u32::MAX distinct source locations");
    table.push(loc);
    index.insert(loc, id);
    id
}

/// Interns `loc` into the process-wide location table, returning its stable
/// 32-bit id. Two locations with equal file/line always get the same id.
#[must_use]
pub fn intern_loc(loc: SourceLoc) -> u32 {
    intern_loc_tiered(loc).0
}

/// Which tier of the three-level intern cache settled a lookup. Purely an
/// observability detail; the returned id is identical either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InternTier {
    /// Hit in the thread-local cache.
    Tls,
    /// Fell through to the process-wide table (lock + dedup index).
    Global,
}

/// [`intern_loc`], also reporting which tier answered.
fn intern_loc_tiered(loc: SourceLoc) -> (u32, InternTier) {
    // The thread cache may already be torn down when a session slot flushes
    // from a thread-local destructor; fall through to the global table then.
    LOC_CACHE
        .try_with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(&(_, id)) = cache.iter().find(|(l, _)| l.same_site(&loc)) {
                return (id, InternTier::Tls);
            }
            let id = intern_uncached(loc);
            if cache.len() < THREAD_CACHE_MAX {
                cache.push((loc, id));
            }
            (id, InternTier::Global)
        })
        .unwrap_or_else(|_| (intern_uncached(loc), InternTier::Global))
}

/// First-level intern cache embedded in a recording buffer.
///
/// [`intern_loc`]'s thread-local cache already keeps the global table off
/// the record path, but the `thread_local!` access plus `RefCell` borrow it
/// pays per entry is measurable at ingest rates. A recording thread replays
/// the same handful of call sites, so an arena-resident scan of at most
/// `LOC_INTERNER_MAX` (8) sites settles almost every entry with a few
/// pointer compares; [`intern_loc`] is the miss path. Interned ids are
/// process-global, so a recycled buffer's cache stays valid on whatever
/// thread picks the buffer up next — eviction (round-robin) affects only
/// speed, never correctness.
#[derive(Debug, Default)]
pub struct LocInterner {
    sites: Vec<(SourceLoc, u32)>,
    /// Round-robin eviction cursor.
    next: usize,
    /// Tier-hit tallies (plain counters: the interner is single-owner, and
    /// the cold fold into shared telemetry happens at batch-ship time).
    pub(crate) stats: InternStats,
}

/// Sites held by a [`LocInterner`] — enough for the instrumentation macros
/// of a hot loop, small enough that a miss-heavy scan stays cheap.
const LOC_INTERNER_MAX: usize = 8;

/// Tier-hit tallies of the three-level location-intern cache: per-arena
/// scan → thread-local cache → process-global table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups settled by the arena-resident site scan.
    pub arena_hits: u64,
    /// Arena misses settled by the thread-local cache.
    pub tls_hits: u64,
    /// Lookups that fell through to the process-global table.
    pub global: u64,
}

impl InternStats {
    /// Adds `other` into `self`, field by field.
    pub fn merge(&mut self, other: InternStats) {
        self.arena_hits += other.arena_hits;
        self.tls_hits += other.tls_hits;
        self.global += other.global;
    }
}

impl LocInterner {
    /// Interns `loc`, consulting the in-buffer cache first.
    #[inline]
    #[must_use]
    pub fn intern(&mut self, loc: SourceLoc) -> u32 {
        if let Some(&(_, id)) = self.sites.iter().find(|(l, _)| l.same_site(&loc)) {
            self.stats.arena_hits += 1;
            return id;
        }
        let (id, tier) = intern_loc_tiered(loc);
        match tier {
            InternTier::Tls => self.stats.tls_hits += 1,
            InternTier::Global => self.stats.global += 1,
        }
        if self.sites.len() < LOC_INTERNER_MAX {
            self.sites.push((loc, id));
        } else {
            self.sites[self.next] = (loc, id);
            self.next = (self.next + 1) % LOC_INTERNER_MAX;
        }
        id
    }

    /// Returns and resets the tier-hit tallies accumulated since the last
    /// take. Called at batch-ship time to fold into shared telemetry.
    pub fn take_stats(&mut self) -> InternStats {
        std::mem::take(&mut self.stats)
    }
}

/// Resolves an interned id against the global table (read lock). For bulk
/// decoding prefer a [`LocResolver`], which amortizes the lock.
#[must_use]
pub fn resolve_loc(id: u32) -> SourceLoc {
    global().table.read()[id as usize]
}

/// A cheap, lock-amortizing mirror of the global location table.
///
/// The table is append-only, so a resolver only ever copies the tail it has
/// not seen yet; steady-state resolution is an indexed load.
#[derive(Debug, Default)]
pub struct LocResolver {
    mirror: Vec<SourceLoc>,
}

impl LocResolver {
    /// Creates an empty resolver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves an interned id, refreshing the mirror from the global table
    /// when the id is newer than anything seen so far.
    pub fn resolve(&mut self, id: u32) -> SourceLoc {
        let idx = id as usize;
        if idx >= self.mirror.len() {
            let table = global().table.read();
            self.mirror.extend_from_slice(&table[self.mirror.len()..]);
        }
        self.mirror[idx]
    }
}

// ---------------------------------------------------------------------------
// Encode / decode
// ---------------------------------------------------------------------------

/// Encodes one [`Entry`] into `buf`, interning its location. Returns the
/// number of records appended (2 for `isOrderedBefore`, 1 otherwise).
#[inline]
pub fn encode_into(buf: &mut Vec<PackedEntry>, entry: Entry) -> usize {
    encode_with_id(buf, entry.event, intern_loc(entry.loc))
}

/// [`encode_into`], but interning through a buffer-resident [`LocInterner`]
/// instead of the thread-local cache — the ingest hot path.
#[inline]
pub fn encode_into_interned(
    buf: &mut Vec<PackedEntry>,
    entry: Entry,
    interner: &mut LocInterner,
) -> usize {
    let id = interner.intern(entry.loc);
    encode_with_id(buf, entry.event, id)
}

#[inline]
fn encode_with_id(buf: &mut Vec<PackedEntry>, event: Event, loc: u32) -> usize {
    let zero = ByteRange::new(0, 0);
    match event {
        Event::Write(r) => buf.push(PackedEntry::new(PackedOp::Write, loc, r)),
        Event::Flush(r) => buf.push(PackedEntry::new(PackedOp::Flush, loc, r)),
        Event::Fence => buf.push(PackedEntry::new(PackedOp::Fence, loc, zero)),
        Event::OFence => buf.push(PackedEntry::new(PackedOp::OFence, loc, zero)),
        Event::DFence => buf.push(PackedEntry::new(PackedOp::DFence, loc, zero)),
        Event::TxBegin => buf.push(PackedEntry::new(PackedOp::TxBegin, loc, zero)),
        Event::TxEnd => buf.push(PackedEntry::new(PackedOp::TxEnd, loc, zero)),
        Event::TxAdd(r) => buf.push(PackedEntry::new(PackedOp::TxAdd, loc, r)),
        Event::IsPersist(r) => buf.push(PackedEntry::new(PackedOp::IsPersist, loc, r)),
        Event::IsOrderedBefore(a, b) => {
            buf.push(PackedEntry::new(PackedOp::IsOrderedBefore, loc, a));
            buf.push(PackedEntry::new(PackedOp::Operand, loc, b));
            return 2;
        }
        Event::TxCheckerStart => buf.push(PackedEntry::new(PackedOp::TxCheckerStart, loc, zero)),
        Event::TxCheckerEnd => buf.push(PackedEntry::new(PackedOp::TxCheckerEnd, loc, zero)),
        Event::Exclude(r) => buf.push(PackedEntry::new(PackedOp::Exclude, loc, r)),
        Event::Include(r) => buf.push(PackedEntry::new(PackedOp::Include, loc, r)),
    }
    1
}

/// Decodes the record starting at `words[i]`, returning the entry and the
/// index of the next record. `None` once `i` is past the end.
pub fn decode_next(
    words: &[PackedEntry],
    i: usize,
    resolver: &mut LocResolver,
) -> Option<(Entry, usize)> {
    let (event, loc_id, next) = decode_event(words, i)?;
    Some((event.at(resolver.resolve(loc_id)), next))
}

/// Decodes the event starting at `words[i]` without resolving its location:
/// the event, the interned id of its source location, and the index of the
/// next record. `None` once `i` is past the end.
#[inline]
pub fn decode_event(words: &[PackedEntry], i: usize) -> Option<(Event, u32, usize)> {
    let rec = *words.get(i)?;
    let (event, next) = match rec.op() {
        PackedOp::Write => (Event::Write(rec.range()), i + 1),
        PackedOp::Flush => (Event::Flush(rec.range()), i + 1),
        PackedOp::Fence => (Event::Fence, i + 1),
        PackedOp::OFence => (Event::OFence, i + 1),
        PackedOp::DFence => (Event::DFence, i + 1),
        PackedOp::TxBegin => (Event::TxBegin, i + 1),
        PackedOp::TxEnd => (Event::TxEnd, i + 1),
        PackedOp::TxAdd => (Event::TxAdd(rec.range()), i + 1),
        PackedOp::IsPersist => (Event::IsPersist(rec.range()), i + 1),
        PackedOp::IsOrderedBefore => {
            let second = match words.get(i + 1) {
                Some(op) if op.op() == PackedOp::Operand => op.range(),
                _ => unreachable!("isOrderedBefore record without its operand continuation"),
            };
            (Event::IsOrderedBefore(rec.range(), second), i + 2)
        }
        PackedOp::TxCheckerStart => (Event::TxCheckerStart, i + 1),
        PackedOp::TxCheckerEnd => (Event::TxCheckerEnd, i + 1),
        PackedOp::Exclude => (Event::Exclude(rec.range()), i + 1),
        PackedOp::Include => (Event::Include(rec.range()), i + 1),
        PackedOp::Operand => unreachable!("dangling operand continuation record"),
    };
    Some((event, rec.loc_id(), next))
}

/// Decodes a whole record slice back into entries.
#[must_use]
pub fn decode_all(words: &[PackedEntry]) -> Vec<Entry> {
    let mut resolver = LocResolver::new();
    let mut out = Vec::new();
    let mut i = 0;
    while let Some((entry, next)) = decode_next(words, i, &mut resolver) {
        out.push(entry);
        i = next;
    }
    out
}

// ---------------------------------------------------------------------------
// Trace fingerprinting
// ---------------------------------------------------------------------------

/// A stable 128-bit content fingerprint of a packed record stream.
///
/// Two streams fingerprint equal exactly when they encode the same event
/// sequence — same opcodes, same range words, same *source sites* — in the
/// same order. The key is run-stable: interned location ids are folded in
/// via a content hash of the site (file bytes + line), never via the raw id,
/// so the fingerprint does not depend on the order sites happened to be
/// interned in this process. That makes it safe to key caches that must
/// agree across runs, dialects, and worker schedules.
///
/// Collisions are not adversarially hard — this is a 128-bit mixing hash,
/// not a MAC — but accidental collision probability is ~2⁻¹²⁸ per pair,
/// negligible against any realistic trace population.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TraceFingerprint {
    hi: u64,
    lo: u64,
}

impl TraceFingerprint {
    /// The fingerprint as one 128-bit integer (for map keys / sharding).
    #[must_use]
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// One round of the splitmix64 finalizer — full-avalanche 64→64 mixing.
#[inline]
const fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Run-stable 64-bit hash of a source site: FNV-1a over the file bytes,
/// line folded in, finished with a splitmix round. Equal file/line content
/// hashes equal regardless of `&'static str` pointer identity or intern
/// order.
#[must_use]
pub fn site_hash(loc: SourceLoc) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in loc.file().as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(h ^ (u64::from(loc.line()) << 1))
}

/// Computes [`TraceFingerprint`]s over packed record streams.
///
/// Owns a per-id mirror of site hashes (the global location table is
/// append-only, so the mirror only ever extends), keeping the table's read
/// lock off the per-record path: steady-state fingerprinting is an indexed
/// load plus a few arithmetic rounds per record.
#[derive(Debug, Default)]
pub struct Fingerprinter {
    site_hashes: Vec<u64>,
}

impl Fingerprinter {
    /// Creates a fingerprinter with an empty site-hash mirror.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The run-stable hash for an interned id, refreshing the mirror from
    /// the global table when the id is newer than anything seen so far.
    #[inline]
    fn id_hash(&mut self, id: u32) -> u64 {
        let idx = id as usize;
        if idx >= self.site_hashes.len() {
            let table = global().table.read();
            self.site_hashes.extend(table[self.site_hashes.len()..].iter().map(|&l| site_hash(l)));
        }
        self.site_hashes[idx]
    }

    /// Fingerprints one packed record stream.
    ///
    /// Two cross-coupled 64-bit lanes, three mixing rounds per record over
    /// (opcode ⊕ site hash, range start, range end), record count folded
    /// into the finalizer so a prefix never collides with its extension.
    #[must_use]
    pub fn fingerprint(&mut self, words: &[PackedEntry]) -> TraceFingerprint {
        let mut a = 0x243f_6a88_85a3_08d3u64; // distinct lane seeds (pi digits)
        let mut b = 0x1319_8a2e_0370_7344u64;
        for rec in words {
            let k = self.id_hash(rec.loc_id()) ^ (rec.meta & 0xff);
            a = splitmix64(a ^ k);
            b = splitmix64(b ^ rec.hi ^ a);
            a = splitmix64(a ^ rec.lo);
        }
        a = splitmix64(a ^ words.len() as u64);
        b = splitmix64(b ^ a.rotate_left(31));
        TraceFingerprint { hi: b, lo: a }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn record_is_exactly_24_bytes() {
        assert_eq!(std::mem::size_of::<PackedEntry>(), PACKED_ENTRY_BYTES);
        assert_eq!(std::mem::align_of::<PackedEntry>(), 8);
    }

    #[test]
    fn every_event_round_trips() {
        let loc = SourceLoc::new("rt.rs", 11);
        let events = [
            Event::Write(r(0x10, 0x18)),
            Event::Flush(r(0, 4096)),
            Event::Fence,
            Event::OFence,
            Event::DFence,
            Event::TxBegin,
            Event::TxEnd,
            Event::TxAdd(r(7, 9)),
            Event::IsPersist(r(0, 0)),
            Event::IsOrderedBefore(r(0, 8), r(u64::MAX - 8, u64::MAX)),
            Event::TxCheckerStart,
            Event::TxCheckerEnd,
            Event::Exclude(r(1, 2)),
            Event::Include(r(3, 5)),
        ];
        let mut buf = Vec::new();
        for &e in &events {
            encode_into(&mut buf, e.at(loc));
        }
        // isOrderedBefore takes two records, everything else one.
        assert_eq!(buf.len(), events.len() + 1);
        let decoded = decode_all(&buf);
        assert_eq!(decoded.len(), events.len());
        for (entry, &event) in decoded.iter().zip(&events) {
            assert_eq!(entry.event, event);
            assert_eq!(entry.loc, loc);
        }
    }

    #[test]
    fn interning_is_stable_across_threads() {
        let loc = SourceLoc::new("stable.rs", 1);
        let here = intern_loc(loc);
        let from_thread =
            std::thread::spawn(move || intern_loc(SourceLoc::new("stable.rs", 1))).join().unwrap();
        assert_eq!(here, from_thread);
        assert_eq!(resolve_loc(here), loc);
        let mut resolver = LocResolver::new();
        assert_eq!(resolver.resolve(here), loc);
    }

    #[test]
    fn resolver_sees_later_interns() {
        let mut resolver = LocResolver::new();
        let a = intern_loc(SourceLoc::new("late.rs", 1));
        assert_eq!(resolver.resolve(a).line(), 1);
        let b = intern_loc(SourceLoc::new("late.rs", 2));
        assert_eq!(resolver.resolve(b), SourceLoc::new("late.rs", 2));
    }

    #[test]
    fn fingerprint_is_content_addressed() {
        let loc = SourceLoc::new("fp.rs", 1);
        let encode = |events: &[Event]| {
            let mut buf = Vec::new();
            for &e in events {
                encode_into(&mut buf, e.at(loc));
            }
            buf
        };
        let base = encode(&[Event::Write(r(0, 8)), Event::Flush(r(0, 8)), Event::Fence]);
        let mut fp = Fingerprinter::new();
        let f0 = fp.fingerprint(&base);
        // Same stream, same fingerprint — including from a fresh mirror.
        assert_eq!(Fingerprinter::new().fingerprint(&base), f0);
        // Any content change — opcode, range word, order, length — differs.
        let op = encode(&[Event::Write(r(0, 8)), Event::Flush(r(0, 8)), Event::OFence]);
        let range = encode(&[Event::Write(r(0, 9)), Event::Flush(r(0, 8)), Event::Fence]);
        let order = encode(&[Event::Flush(r(0, 8)), Event::Write(r(0, 8)), Event::Fence]);
        let longer =
            encode(&[Event::Write(r(0, 8)), Event::Flush(r(0, 8)), Event::Fence, Event::Fence]);
        for other in [&op, &range, &order, &longer] {
            assert_ne!(fp.fingerprint(other), f0);
        }
        // A prefix never collides with its extension.
        assert_ne!(fp.fingerprint(&base[..2]), f0);
        // The empty stream is a fixed, non-degenerate value.
        assert_eq!(fp.fingerprint(&[]), Fingerprinter::new().fingerprint(&[]));
        assert_ne!(fp.fingerprint(&[]).as_u128(), 0);
    }

    #[test]
    fn fingerprint_tracks_source_sites_not_intern_ids() {
        // Same event stream from a different source site: different key.
        let mk = |loc: SourceLoc| {
            let mut buf = Vec::new();
            encode_into(&mut buf, Event::Write(r(0, 8)).at(loc));
            buf
        };
        let mut fp = Fingerprinter::new();
        let a = fp.fingerprint(&mk(SourceLoc::new("site_a.rs", 7)));
        let b = fp.fingerprint(&mk(SourceLoc::new("site_b.rs", 7)));
        let a_line = fp.fingerprint(&mk(SourceLoc::new("site_a.rs", 8)));
        assert_ne!(a, b);
        assert_ne!(a, a_line);
        assert_eq!(a, fp.fingerprint(&mk(SourceLoc::new("site_a.rs", 7))));
    }

    #[test]
    fn site_hash_is_content_stable() {
        // Equal file/line content hashes equal even across distinct string
        // allocations — the property that makes fingerprints run-stable
        // (intern ids assigned in a different order hash the same).
        let heap_a: &'static str = Box::leak(String::from("stable_site.rs").into_boxed_str());
        let heap_b: &'static str = Box::leak(String::from("stable_site.rs").into_boxed_str());
        assert!(!std::ptr::eq(heap_a, heap_b));
        assert_eq!(site_hash(SourceLoc::new(heap_a, 3)), site_hash(SourceLoc::new(heap_b, 3)));
        assert_ne!(site_hash(SourceLoc::new(heap_a, 3)), site_hash(SourceLoc::new(heap_a, 4)));
    }

    #[test]
    fn loc_id_and_op_are_recoverable() {
        let mut buf = Vec::new();
        let loc = SourceLoc::new("fields.rs", 3);
        encode_into(&mut buf, Event::Write(r(0x40, 0x48)).at(loc));
        let rec = buf[0];
        assert_eq!(rec.op(), PackedOp::Write);
        assert_eq!(resolve_loc(rec.loc_id()), loc);
        assert_eq!(rec.range(), r(0x40, 0x48));
        assert_eq!((rec.lo(), rec.hi()), (0x40, 0x48));
    }
}
