//! Source-location interning for the checker hot path.
//!
//! A trace replays the same few call sites over and over — every `write`
//! from one instrumented store carries the identical [`SourceLoc`] — yet the
//! shadow memory used to clone that location into every segment it split.
//! Interning replaces the location in each segment state with a 4-byte
//! [`LocId`] (8 bytes as an `Option`) and makes the state `Copy`, so
//! splitting a segment or rewriting its state is a plain copy, not a clone
//! call.
//!
//! The interner is built to be *recycled* across traces: [`LocInterner::clear`]
//! drops the entries but keeps every backing allocation, so a pooled checker
//! interns with zero steady-state allocation.

use std::collections::HashMap;

use crate::SourceLoc;

/// Distinct locations below which lookup is a linear scan of the arena; past
/// it a hash index is built (long fuzzed traces with per-op locations).
const LINEAR_MAX: usize = 16;

/// A compact handle to an interned [`SourceLoc`], valid for the interner (and
/// the trace) that produced it. `u32` keeps shadow-memory segment state small
/// and `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LocId(u32);

/// Per-trace [`SourceLoc`] interner with recyclable storage.
///
/// # Examples
///
/// ```
/// use pmtest_trace::{LocInterner, SourceLoc};
///
/// let mut interner = LocInterner::new();
/// let a = interner.intern(SourceLoc::new("app.rs", 7));
/// let b = interner.intern(SourceLoc::new("app.rs", 7));
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), SourceLoc::new("app.rs", 7));
/// ```
#[derive(Debug, Default)]
pub struct LocInterner {
    locs: Vec<SourceLoc>,
    /// Hash index over `locs`, only populated once the arena outgrows
    /// [`LINEAR_MAX`]. Retained (empty) across `clear` so the capacity is
    /// recycled too.
    index: HashMap<SourceLoc, u32>,
    /// One-entry cache: consecutive events from the same call site hit here
    /// without any scan.
    last: Option<(SourceLoc, u32)>,
}

impl LocInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `loc`, returning the id of the existing entry when the same
    /// location was seen before.
    pub fn intern(&mut self, loc: SourceLoc) -> LocId {
        if let Some((cached, id)) = self.last {
            if cached == loc {
                return LocId(id);
            }
        }
        let id = if self.locs.len() <= LINEAR_MAX {
            match self.locs.iter().position(|&l| l == loc) {
                Some(i) => i as u32,
                None => self.push(loc),
            }
        } else {
            if self.index.is_empty() {
                // First lookup past the linear regime: index what we have.
                self.index.extend(self.locs.iter().enumerate().map(|(i, &l)| (l, i as u32)));
            }
            match self.index.get(&loc) {
                Some(&i) => i,
                None => {
                    let i = self.push(loc);
                    self.index.insert(loc, i);
                    i
                }
            }
        };
        self.last = Some((loc, id));
        LocId(id)
    }

    fn push(&mut self, loc: SourceLoc) -> u32 {
        let i = u32::try_from(self.locs.len()).expect("more than u32::MAX distinct locations");
        self.locs.push(loc);
        i
    }

    /// Looks up an interned location. Ids are only meaningful for the
    /// interner that produced them (and before its next [`clear`](Self::clear)).
    #[must_use]
    pub fn resolve(&self, id: LocId) -> SourceLoc {
        self.locs[id.0 as usize]
    }

    /// Number of distinct locations interned since the last clear.
    #[must_use]
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether nothing has been interned since the last clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.locs.is_empty()
    }

    /// Forgets all entries but keeps the backing allocations, so a recycled
    /// interner works allocation-free in steady state.
    pub fn clear(&mut self) {
        self.locs.clear();
        self.index.clear();
        self.last = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(line: u32) -> SourceLoc {
        SourceLoc::new("intern.rs", line)
    }

    #[test]
    fn same_location_same_id() {
        let mut i = LocInterner::new();
        let a = i.intern(loc(1));
        let b = i.intern(loc(2));
        assert_ne!(a, b);
        assert_eq!(i.intern(loc(1)), a);
        assert_eq!(i.intern(loc(2)), b);
        assert_eq!(i.len(), 2);
        assert_eq!(i.resolve(a), loc(1));
        assert_eq!(i.resolve(b), loc(2));
    }

    #[test]
    fn survives_the_switch_to_hashed_lookup() {
        let mut i = LocInterner::new();
        let ids: Vec<LocId> = (0..200).map(|n| i.intern(loc(n))).collect();
        assert_eq!(i.len(), 200);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.resolve(*id), loc(n as u32));
            assert_eq!(i.intern(loc(n as u32)), *id, "re-intern must dedupe");
        }
    }

    #[test]
    fn clear_recycles() {
        let mut i = LocInterner::new();
        for n in 0..100 {
            i.intern(loc(n));
        }
        i.clear();
        assert!(i.is_empty());
        let a = i.intern(loc(7));
        assert_eq!(i.resolve(a), loc(7));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn consecutive_hits_use_the_cache() {
        let mut i = LocInterner::new();
        let a = i.intern(loc(1));
        for _ in 0..10 {
            assert_eq!(i.intern(loc(1)), a);
        }
        assert_eq!(i.len(), 1);
    }
}
