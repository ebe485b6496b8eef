use std::fmt::Debug;

use pmtest_interval::ByteRange;
use pmtest_trace::packed::{intern_loc, resolve_loc};
use pmtest_trace::{Entry, Event, SourceLoc};

use crate::diag::{Diag, DiagKind};
use crate::epoch::EpochInterval;
use crate::shadow::ShadowMemory;

/// The checking rules for one memory persistency model (§4.4, §5.2).
///
/// A model decides (i) how each PM *operation* updates the shadow memory's
/// persist/flush intervals and (ii) how the two low-level checkers are
/// validated against those intervals. PMTest ships the x86 rules
/// ([`X86Model`]) and the HOPS rules ([`HopsModel`]); supporting another
/// persistency model — the paper names DPO and epoch persistency as
/// candidates — means implementing this trait, nothing else changes.
///
/// The trait is object-safe: the engine stores models as `Arc<dyn
/// PersistencyModel>`.
pub trait PersistencyModel: Send + Sync + Debug {
    /// A short model name for reports (e.g. `"x86"`).
    fn name(&self) -> &str;

    /// Applies one *operation* entry (`write`/`clwb`/fences) to the shadow
    /// memory, appending any performance diagnostics to `diags`.
    ///
    /// Transaction events and checkers never reach this method; the replay
    /// walk ([`check_trace`](crate::check_trace)) handles those uniformly.
    fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>);

    /// Validates `isPersist(range)` (§4.4): every written byte of `range`
    /// must be guaranteed durable.
    fn check_persist(
        &self,
        shadow: &ShadowMemory,
        range: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    );

    /// Validates `isOrderedBefore(first, second)` (§4.4): every persist of
    /// `first` must be guaranteed to complete before any persist of `second`
    /// can happen.
    fn check_ordered_before(
        &self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    );

    /// Identifies a built-in model so the checker can replay its rules
    /// without dynamic dispatch or per-event [`Entry`] reconstruction (the
    /// fused hot path). Custom models keep the default `None` and go through
    /// [`apply`](Self::apply) / the `check_*` methods per entry — semantics
    /// are identical either way.
    fn builtin(&self) -> Option<BuiltinModel> {
        None
    }
}

/// A built-in persistency model, carrying the configuration the checker
/// needs to inline its rules. See [`PersistencyModel::builtin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuiltinModel {
    /// [`X86Model`] with its performance-checker switch.
    X86 {
        /// Whether the §5.1.2 performance checkers are enabled.
        warn_performance: bool,
    },
    /// [`HopsModel`].
    Hops,
}

fn foreign_op(event: Event, loc: SourceLoc, model: &str, diags: &mut Vec<Diag>) {
    diags.push(Diag {
        kind: DiagKind::ForeignOperation,
        loc,
        range: None,
        culprit: None,
        message: format!("`{event}` is not part of the {model} persistency model"),
    });
}

/// The shared `isPersist` validation (§4.4): both built-in models report an
/// open persist interval the same way. Also the fused-path implementation.
///
/// The rule functions take the issuing location as its interned id `at`
/// and resolve ids through `locs` only for a diagnostic: the replay passes
/// its worker's resolver, the [`PersistencyModel`] methods the process-wide
/// table.
pub(crate) fn persist_failure(
    shadow: &ShadowMemory,
    range: ByteRange,
    at: u32,
    locs: &mut impl FnMut(u32) -> SourceLoc,
    diags: &mut Vec<Diag>,
) {
    for (sub, st) in shadow.states_in(range) {
        if let Some(pi) = st.persist {
            if !pi.is_closed() {
                diags.push(Diag {
                    kind: DiagKind::NotPersisted,
                    loc: locs(at),
                    range: Some(sub),
                    culprit: st.write_loc.map(&mut *locs),
                    message: format!("persist interval {pi} never closes"),
                });
            }
        }
    }
}

/// One x86 operation (§4.4 rules + §5.1.2 performance checkers). Both
/// [`X86Model::apply`] and the checker's fused path run exactly this code,
/// which is what keeps their diagnostics byte-identical.
pub(crate) fn x86_op(
    warn_performance: bool,
    shadow: &mut ShadowMemory,
    event: Event,
    at: u32,
    locs: &mut impl FnMut(u32) -> SourceLoc,
    diags: &mut Vec<Diag>,
) {
    match event {
        Event::Write(range) => shadow.write(range, at),
        Event::Flush(range) => {
            let obs = shadow.flush(range, at);
            if warn_performance {
                for sub in obs.unmodified {
                    diags.push(Diag {
                        kind: DiagKind::UnnecessaryFlush,
                        loc: locs(at),
                        range: Some(sub),
                        culprit: None,
                        message: "writing back data that was never modified".to_owned(),
                    });
                }
                for (sub, earlier) in obs.duplicate {
                    diags.push(Diag {
                        kind: DiagKind::DuplicateFlush,
                        loc: locs(at),
                        range: Some(sub),
                        culprit: earlier.map(&mut *locs),
                        message: "data already written back".to_owned(),
                    });
                }
            }
        }
        Event::Fence => shadow.fence(),
        Event::OFence => {
            foreign_op(event, locs(at), "x86", diags);
            shadow.ofence();
        }
        Event::DFence => {
            foreign_op(event, locs(at), "x86", diags);
            shadow.dfence();
        }
        _ => unreachable!("non-operation event {event} reached the model"),
    }
}

/// One HOPS operation (§5.2 rules); shared by [`HopsModel::apply`] and the
/// fused path.
pub(crate) fn hops_op(
    shadow: &mut ShadowMemory,
    event: Event,
    at: u32,
    locs: &mut impl FnMut(u32) -> SourceLoc,
    diags: &mut Vec<Diag>,
) {
    match event {
        Event::Write(range) => shadow.write(range, at),
        Event::OFence => shadow.ofence(),
        Event::DFence => shadow.dfence(),
        Event::Flush(_) => {
            // HOPS hardware tracks dirty PM data itself; clwb is redundant
            // there (§5.2 removes the flush interval).
            foreign_op(event, locs(at), "hops", diags);
        }
        Event::Fence => {
            foreign_op(event, locs(at), "hops", diags);
            shadow.ofence();
        }
        _ => unreachable!("non-operation event {event} reached the model"),
    }
}

/// The first pair of persist intervals — one from a written sub-range of
/// `first`, one from a written sub-range of `second`, in address order —
/// that `ordered` rejects, with the first sub-range's write location.
/// Walks the shadow memory in place: nothing is collected.
fn first_unordered(
    shadow: &ShadowMemory,
    first: ByteRange,
    second: ByteRange,
    ordered: impl Fn(&EpochInterval, &EpochInterval) -> bool,
) -> Option<(ByteRange, EpochInterval, Option<u32>, ByteRange, EpochInterval)> {
    let persists = |range| {
        shadow.states_in(range).filter_map(|(sub, st)| st.persist.map(|p| (sub, p, st.write_loc)))
    };
    persists(first).find_map(|(sub_a, pi_a, loc_a)| {
        persists(second)
            .find(|(_, pi_b, _)| !ordered(&pi_a, pi_b))
            .map(|(sub_b, pi_b, _)| (sub_a, pi_a, loc_a, sub_b, pi_b))
    })
}

/// x86 `isOrderedBefore` (§4.4): interval ends-before-starts, one witness
/// per checker. Shared by [`X86Model`] and the fused path.
pub(crate) fn x86_ordered_before(
    shadow: &ShadowMemory,
    first: ByteRange,
    second: ByteRange,
    at: u32,
    locs: &mut impl FnMut(u32) -> SourceLoc,
    diags: &mut Vec<Diag>,
) {
    // One witness per checker, like the paper's output.
    if let Some((sub_a, pi_a, loc_a, sub_b, pi_b)) =
        first_unordered(shadow, first, second, EpochInterval::ends_before_starts)
    {
        diags.push(Diag {
            kind: DiagKind::NotOrderedBefore,
            loc: locs(at),
            range: Some(sub_a),
            culprit: loc_a.map(&mut *locs),
            message: format!(
                "persist interval {pi_a} of {sub_a:?} may not complete before \
                 {pi_b} of {sub_b:?} begins"
            ),
        });
    }
}

/// HOPS `isOrderedBefore` (§5.2): fences order persists across epochs, so
/// interval *starts* are compared. Shared by [`HopsModel`] and the fused
/// path.
pub(crate) fn hops_ordered_before(
    shadow: &ShadowMemory,
    first: ByteRange,
    second: ByteRange,
    at: u32,
    locs: &mut impl FnMut(u32) -> SourceLoc,
    diags: &mut Vec<Diag>,
) {
    if let Some((sub_a, pi_a, loc_a, sub_b, pi_b)) =
        first_unordered(shadow, first, second, EpochInterval::starts_before)
    {
        diags.push(Diag {
            kind: DiagKind::NotOrderedBefore,
            loc: locs(at),
            range: Some(sub_a),
            culprit: loc_a.map(&mut *locs),
            message: format!(
                "write at {sub_a:?} (epoch {}) is not fence-ordered before \
                 write at {sub_b:?} (epoch {})",
                pi_a.start(),
                pi_b.start()
            ),
        });
    }
}

/// The x86 persistency model: `write` / `clwb` / `sfence` (§4.4).
///
/// * a write may persist any time from its issue epoch onward;
/// * a `clwb` makes the eventual writeback *possible*;
/// * an `sfence` completes all issued writebacks, so a write is guaranteed
///   durable once a covering `clwb` and a subsequent `sfence` have executed.
///
/// The built-in performance checkers (§5.1.2) fire here: `clwb` of
/// never-written data reports [`DiagKind::UnnecessaryFlush`], and `clwb` of
/// data whose writeback is already issued or completed reports
/// [`DiagKind::DuplicateFlush`].
#[derive(Clone, Copy, Debug, Default)]
pub struct X86Model {
    warn_performance: bool,
}

impl X86Model {
    /// Creates the model with performance warnings enabled.
    #[must_use]
    pub fn new() -> Self {
        Self { warn_performance: true }
    }

    /// Creates the model without the §5.1.2 performance checkers (only
    /// correctness FAILs are reported).
    #[must_use]
    pub fn without_performance_checks() -> Self {
        Self { warn_performance: false }
    }
}

impl PersistencyModel for X86Model {
    fn name(&self) -> &str {
        "x86"
    }

    fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>) {
        let at = intern_loc(entry.loc);
        x86_op(self.warn_performance, shadow, entry.event, at, &mut resolve_loc, diags);
    }

    fn check_persist(
        &self,
        shadow: &ShadowMemory,
        range: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        persist_failure(shadow, range, intern_loc(loc), &mut resolve_loc, diags);
    }

    fn check_ordered_before(
        &self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        x86_ordered_before(shadow, first, second, intern_loc(loc), &mut resolve_loc, diags);
    }

    fn builtin(&self) -> Option<BuiltinModel> {
        Some(BuiltinModel::X86 { warn_performance: self.warn_performance })
    }
}

/// The HOPS persistency model: `write` / `ofence` / `dfence` (§5.2).
///
/// `ofence` orders persists without forcing durability (epoch bump);
/// `dfence` stalls until everything before it is durable (epoch bump plus
/// closing all open persist intervals). Because fences already order
/// persists across epochs, `isOrderedBefore` compares interval *starts*.
#[derive(Clone, Copy, Debug, Default)]
pub struct HopsModel;

impl HopsModel {
    /// Creates the model.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl PersistencyModel for HopsModel {
    fn name(&self) -> &str {
        "hops"
    }

    fn apply(&self, shadow: &mut ShadowMemory, entry: &Entry, diags: &mut Vec<Diag>) {
        hops_op(shadow, entry.event, intern_loc(entry.loc), &mut resolve_loc, diags);
    }

    fn check_persist(
        &self,
        shadow: &ShadowMemory,
        range: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        persist_failure(shadow, range, intern_loc(loc), &mut resolve_loc, diags);
    }

    fn check_ordered_before(
        &self,
        shadow: &ShadowMemory,
        first: ByteRange,
        second: ByteRange,
        loc: SourceLoc,
        diags: &mut Vec<Diag>,
    ) {
        hops_ordered_before(shadow, first, second, intern_loc(loc), &mut resolve_loc, diags);
    }

    fn builtin(&self) -> Option<BuiltinModel> {
        Some(BuiltinModel::Hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(event: Event) -> Entry {
        event.at(SourceLoc::new("m.rs", 1))
    }

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    fn apply_all(
        model: &dyn PersistencyModel,
        shadow: &mut ShadowMemory,
        events: &[Event],
    ) -> Vec<Diag> {
        let mut diags = Vec::new();
        for &e in events {
            model.apply(shadow, &entry(e), &mut diags);
        }
        diags
    }

    #[test]
    fn x86_flush_fence_persists() {
        let model = X86Model::new();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(
            &model,
            &mut sh,
            &[Event::Write(r(0, 8)), Event::Flush(r(0, 8)), Event::Fence],
        );
        assert!(diags.is_empty());
        let mut out = Vec::new();
        model.check_persist(&sh, r(0, 8), SourceLoc::new("m.rs", 9), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn x86_missing_flush_fails_is_persist() {
        let model = X86Model::new();
        let mut sh = ShadowMemory::new();
        apply_all(&model, &mut sh, &[Event::Write(r(0, 8)), Event::Fence]);
        let mut out = Vec::new();
        model.check_persist(&sh, r(0, 8), SourceLoc::new("m.rs", 9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagKind::NotPersisted);
        assert_eq!(out[0].culprit, Some(SourceLoc::new("m.rs", 1)));
    }

    #[test]
    fn x86_ordered_before_direction_matters() {
        let model = X86Model::new();
        let mut sh = ShadowMemory::new();
        // B persists first, then A is written: isOrderedBefore(A, B) fails.
        apply_all(
            &model,
            &mut sh,
            &[
                Event::Write(r(64, 72)),
                Event::Flush(r(64, 72)),
                Event::Fence,
                Event::Write(r(0, 8)),
            ],
        );
        let mut out = Vec::new();
        model.check_ordered_before(&sh, r(0, 8), r(64, 72), SourceLoc::new("m.rs", 9), &mut out);
        assert_eq!(out.len(), 1, "inverted order is a failure even without overlap");
        out.clear();
        model.check_ordered_before(&sh, r(64, 72), r(0, 8), SourceLoc::new("m.rs", 9), &mut out);
        assert!(out.is_empty(), "actual order passes");
    }

    #[test]
    fn x86_performance_warnings_fire() {
        let model = X86Model::new();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(
            &model,
            &mut sh,
            &[
                Event::Flush(r(0, 8)),
                Event::Write(r(64, 72)),
                Event::Flush(r(64, 72)),
                Event::Flush(r(64, 72)),
            ],
        );
        assert!(diags.iter().any(|d| d.kind == DiagKind::UnnecessaryFlush));
        assert!(diags.iter().any(|d| d.kind == DiagKind::DuplicateFlush));
    }

    #[test]
    fn x86_performance_warnings_can_be_disabled() {
        let model = X86Model::without_performance_checks();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(&model, &mut sh, &[Event::Flush(r(0, 8)), Event::Flush(r(0, 8))]);
        assert!(diags.is_empty());
    }

    #[test]
    fn x86_rejects_hops_fences_but_keeps_going() {
        let model = X86Model::new();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(&model, &mut sh, &[Event::Write(r(0, 8)), Event::DFence]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::ForeignOperation);
        assert!(sh.is_persisted(r(0, 8)), "dfence semantics still applied");
    }

    #[test]
    fn hops_dfence_persists_everything() {
        let model = HopsModel::new();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(
            &model,
            &mut sh,
            &[Event::Write(r(0, 8)), Event::OFence, Event::Write(r(64, 72)), Event::DFence],
        );
        assert!(diags.is_empty());
        let mut out = Vec::new();
        model.check_persist(&sh, r(0, 128), SourceLoc::new("m.rs", 9), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hops_ordering_by_epoch_start() {
        let model = HopsModel::new();
        let mut sh = ShadowMemory::new();
        // Figure 3b: write A; ofence; write B; dfence.
        apply_all(
            &model,
            &mut sh,
            &[Event::Write(r(0, 8)), Event::OFence, Event::Write(r(64, 72)), Event::DFence],
        );
        let mut out = Vec::new();
        model.check_ordered_before(&sh, r(0, 8), r(64, 72), SourceLoc::new("m.rs", 9), &mut out);
        assert!(out.is_empty(), "A ofence-ordered before B");
        model.check_ordered_before(&sh, r(64, 72), r(0, 8), SourceLoc::new("m.rs", 9), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn hops_same_epoch_writes_are_unordered() {
        let model = HopsModel::new();
        let mut sh = ShadowMemory::new();
        apply_all(&model, &mut sh, &[Event::Write(r(0, 8)), Event::Write(r(64, 72))]);
        let mut out = Vec::new();
        model.check_ordered_before(&sh, r(0, 8), r(64, 72), SourceLoc::new("m.rs", 9), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DiagKind::NotOrderedBefore);
    }

    #[test]
    fn hops_flags_clwb_as_foreign() {
        let model = HopsModel::new();
        let mut sh = ShadowMemory::new();
        let diags = apply_all(&model, &mut sh, &[Event::Write(r(0, 8)), Event::Flush(r(0, 8))]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagKind::ForeignOperation);
    }

    #[test]
    fn models_are_object_safe() {
        let models: Vec<Box<dyn PersistencyModel>> =
            vec![Box::new(X86Model::new()), Box::new(HopsModel::new())];
        assert_eq!(models[0].name(), "x86");
        assert_eq!(models[1].name(), "hops");
    }

    #[test]
    fn vacuous_checks_pass_on_unwritten_ranges() {
        let model = X86Model::new();
        let sh = ShadowMemory::new();
        let mut out = Vec::new();
        model.check_persist(&sh, r(0, 8), SourceLoc::new("m.rs", 9), &mut out);
        model.check_ordered_before(&sh, r(0, 8), r(8, 16), SourceLoc::new("m.rs", 9), &mut out);
        assert!(out.is_empty());
    }
}
