//! Arena-backed batch buffers: a session records straight into one
//! contiguous packed-record arena, and shipping a batch hands the whole
//! arena to the engine as a single pointer/offset move.
//!
//! The old batched path built one `Vec<Entry>` per trace and shipped a
//! `Vec<Trace>` — a heap buffer per trace plus an enum payload per entry.
//! A [`TraceArena`] replaces that with two flat vectors: the packed words
//! of every trace in the batch, back to back, and a small span index
//! `(id, start, records, entries)` marking where each sealed trace lives.
//! Arenas are recycled by trading buffers, never by allocating: each of the
//! engine's producer mailboxes keeps one arena for the producer's life, a
//! handoff trades the staged batch's buffers for the mailbox's cleared
//! ones, and a worker's take trades the mailbox's for its own cleared
//! spare — so steady-state recording never touches the allocator. The arena is the engine's only message
//! shape: a lone submitted [`Trace`] travels as a one-span arena built by
//! [`push_trace`](TraceArena::push_trace).

use crate::event::{Entry, Trace};
use crate::packed::{encode_into_interned, InternStats, LocInterner, PackedEntry};

/// Where one sealed trace lives inside a [`TraceArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The trace identifier (assigned in submission order).
    pub id: u64,
    /// First record of the trace in the arena's word buffer.
    pub start: u32,
    /// Number of packed records.
    pub records: u32,
    /// Logical entry count (`isOrderedBefore` packs into two records).
    pub entries: u32,
}

/// A recycled arena of packed trace records plus the span index of the
/// sealed traces inside it.
///
/// Recording appends to the *open* region at the tail; [`seal`](Self::seal)
/// turns the open region into a span. Shipping moves the sealed spans out by
/// [`append_sealed`](Self::append_sealed); a still-open tail stays with the
/// recording side.
///
/// # Examples
///
/// ```
/// use pmtest_trace::{Event, TraceArena};
/// use pmtest_interval::ByteRange;
///
/// let mut arena = TraceArena::new();
/// arena.push(Event::Write(ByteRange::with_len(0, 8)).here());
/// arena.push(Event::Fence.here());
/// arena.seal(7);
/// assert_eq!(arena.sealed(), 1);
/// let (id, words, entries) = arena.traces().next().unwrap();
/// assert_eq!((id, words.len(), entries), (7, 2, 2));
/// ```
#[derive(Debug, Default)]
pub struct TraceArena {
    words: Vec<PackedEntry>,
    spans: Vec<TraceSpan>,
    /// First word of the open (not yet sealed) region.
    open_start: usize,
    /// Logical entries recorded into the open region.
    open_entries: u32,
    /// First-level location cache; survives [`clear`](Self::clear) so a
    /// recycled arena starts warm (interned ids are process-global).
    interner: LocInterner,
    /// Word-buffer reallocations observed so far (plain counter; the cold
    /// fold into shared telemetry happens at batch-ship time).
    slab_allocs: u64,
    /// Capacity at the last [`seal`](Self::seal), to detect growth.
    last_word_cap: usize,
}

/// Allocator-facing tallies of one recording arena: word-slab growth plus
/// the location-intern tier hits, taken (and reset) at batch-ship time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Times the packed-word buffer had to reallocate (steady state: zero —
    /// recycled arenas keep their backing slab).
    pub slab_allocs: u64,
    /// Location-intern tier hits recorded through this arena.
    pub interns: InternStats,
}

impl TraceArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one entry into the open region.
    #[inline]
    pub fn push(&mut self, entry: Entry) {
        encode_into_interned(&mut self.words, entry, &mut self.interner);
        self.open_entries += 1;
    }

    /// Entries recorded into the open region since the last seal.
    #[must_use]
    pub fn open_entries(&self) -> u32 {
        self.open_entries
    }

    /// Seals the open region as trace `id`. A seal with nothing recorded
    /// produces an (empty) span all the same; callers gate on
    /// [`open_entries`](Self::open_entries).
    pub fn seal(&mut self, id: u64) {
        let start = u32::try_from(self.open_start).expect("arena exceeds u32 records");
        let records =
            u32::try_from(self.words.len() - self.open_start).expect("trace exceeds u32 records");
        self.spans.push(TraceSpan { id, start, records, entries: self.open_entries });
        self.open_start = self.words.len();
        self.open_entries = 0;
        // Growth check once per trace, not per entry: cheap enough to keep
        // even with telemetry off.
        if self.words.capacity() > self.last_word_cap {
            self.slab_allocs += 1;
            self.last_word_cap = self.words.capacity();
        }
    }

    /// Appends a whole recorded `trace` as one sealed span. An arena that
    /// holds no records and whose buffer is too small for the trace adopts
    /// the trace's record buffer instead of copying it, so a lone long trace
    /// ships without a copy; otherwise the trace is copied in, so a recycled
    /// buffer is kept and the traces that follow fit behind it. An empty
    /// trace still gets its (empty) span.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the arena has an open (unsealed) region.
    pub fn push_trace(&mut self, trace: Trace) {
        debug_assert_eq!(self.open_start, self.words.len(), "push_trace onto an open region");
        let (id, entries) = (trace.id(), trace.len() as u32);
        let words = trace.into_packed();
        if self.words.is_empty() && self.words.capacity() < words.len() {
            self.words = words;
            // An adopted buffer is not slab growth of this arena.
            self.last_word_cap = self.words.capacity();
        } else {
            self.reserve_within_retained(words.len());
            self.words.extend_from_slice(&words);
        }
        self.open_entries = entries;
        self.seal(id);
    }

    /// Number of sealed traces.
    #[must_use]
    pub fn sealed(&self) -> usize {
        self.spans.len()
    }

    /// Packed records of the sealed traces.
    #[must_use]
    pub fn sealed_records(&self) -> usize {
        self.open_start
    }

    /// Whether the arena holds neither sealed spans nor open records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.words.is_empty()
    }

    /// Iterates the sealed traces as `(id, records, entry_count)`.
    pub fn traces(&self) -> impl DoubleEndedIterator<Item = (u64, &[PackedEntry], u32)> {
        self.spans.iter().map(|s| {
            let lo = s.start as usize;
            let hi = lo + s.records as usize;
            (s.id, &self.words[lo..hi], s.entries)
        })
    }

    /// Sealed records from which [`append_sealed`](Self::append_sealed)
    /// into an empty arena trades buffers instead of copying. A short trace
    /// is cheaper to copy than the trade is to pay for: the traded-in buffer
    /// comes back from a checking worker, and the recording thread would
    /// then write its next trace into cache lines that worker's core just
    /// read, one cross-core fetch per line, spread over the recording.
    pub const TRADE_MIN_RECORDS: usize = 256;

    /// Moves the sealed traces of `src` onto the end of this arena, leaving
    /// `src` with only its open tail. An arena that holds nothing takes at
    /// least [`TRADE_MIN_RECORDS`](Self::TRADE_MIN_RECORDS) records by
    /// trading buffers with `src` instead of copying: it takes `src`'s
    /// records whole, and `src` records on into this arena's cleared
    /// buffers, its open tail copied over. Otherwise the records are copied
    /// in, and the recording side keeps its buffers. The location cache
    /// stays with `src`, the recording side; `src`'s allocator/intern
    /// tallies move here with the traces, so whoever ships this arena folds
    /// them.
    ///
    /// # Panics
    ///
    /// Debug builds panic if this arena has an open (unsealed) region.
    pub fn append_sealed(&mut self, src: &mut TraceArena) {
        debug_assert_eq!(self.open_start, self.words.len(), "append onto an open region");
        if src.sealed() == 0 {
            return;
        }
        if self.is_empty() && src.open_start >= Self::TRADE_MIN_RECORDS {
            std::mem::swap(&mut self.words, &mut src.words);
            std::mem::swap(&mut self.spans, &mut src.spans);
            // Growth of the traded-in slab is the recording side's, counted
            // at its next seal; size it for a trace like the one just
            // shipped at once rather than by doubling — up to the retained
            // size, so a long trace's records are not held twice.
            src.last_word_cap = src.words.capacity();
            src.words.reserve(self.words.len().min(Self::RETAINED_WORDS));
            src.words.extend_from_slice(&self.words[src.open_start..]);
            self.words.truncate(src.open_start);
            src.open_start = 0;
        } else {
            let base = u32::try_from(self.words.len()).expect("arena exceeds u32 records");
            self.reserve_within_retained(src.open_start);
            self.words.extend_from_slice(&src.words[..src.open_start]);
            let spans = src.spans.drain(..).map(|s| TraceSpan { start: s.start + base, ..s });
            self.spans.extend(spans);
            src.words.drain(..src.open_start);
            src.open_start = 0;
        }
        self.open_start = self.words.len();
        let stats = src.take_stats();
        self.slab_allocs += stats.slab_allocs;
        self.interner.stats.merge(stats.interns);
    }

    /// Makes room for `additional` copied-in records, doubling the word
    /// buffer as `Vec` would but not past
    /// [`RETAINED_WORDS`](Self::RETAINED_WORDS) unless the records need it,
    /// so a batch that fits the retained size leaves a buffer
    /// [`clear`](Self::clear) keeps. Growth is counted as a slab
    /// reallocation.
    fn reserve_within_retained(&mut self, additional: usize) {
        let need = self.words.len() + additional;
        if need > self.words.capacity() {
            let target = (2 * self.words.capacity()).clamp(need, need.max(Self::RETAINED_WORDS));
            self.words.reserve_exact(target - self.words.len());
            self.slab_allocs += 1;
            self.last_word_cap = self.words.capacity();
        }
    }

    /// Word-buffer capacity, in records, that [`clear`](Self::clear) keeps.
    /// A buffer one long trace grew past it is freed instead of staying
    /// pinned in whichever mailbox or spare recycles it next.
    pub const RETAINED_WORDS: usize = 4096;

    /// Forgets all records and spans while keeping the backing allocations
    /// (a word buffer over [`RETAINED_WORDS`](Self::RETAINED_WORDS) is
    /// freed). A recycled arena is cleared before it is traded on, so its
    /// storage never carries records into another trace.
    pub fn clear(&mut self) {
        if self.words.capacity() > Self::RETAINED_WORDS {
            self.words = Vec::new();
        } else {
            self.words.clear();
        }
        self.spans.clear();
        self.open_start = 0;
        self.open_entries = 0;
        self.last_word_cap = self.words.capacity();
    }

    /// Returns and resets the allocator/intern tallies accumulated since
    /// the last take. The ship path calls this on the batch it pushes, which
    /// [`append_sealed`](Self::append_sealed) handed the recording side's
    /// tallies.
    pub fn take_stats(&mut self) -> ArenaStats {
        ArenaStats {
            slab_allocs: std::mem::take(&mut self.slab_allocs),
            interns: self.interner.take_stats(),
        }
    }

    /// Capacity of the word buffer, in records.
    #[must_use]
    pub fn word_capacity(&self) -> usize {
        self.words.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, SourceLoc};
    use pmtest_interval::ByteRange;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    fn loc(line: u32) -> SourceLoc {
        SourceLoc::new("arena.rs", line)
    }

    #[test]
    fn seals_partition_the_word_buffer() {
        let mut arena = TraceArena::new();
        arena.push(Event::Write(r(0, 8)).at(loc(1)));
        arena.push(Event::Fence.at(loc(2)));
        arena.seal(10);
        arena.push(Event::IsOrderedBefore(r(0, 8), r(8, 16)).at(loc(3)));
        arena.seal(11);
        assert_eq!(arena.sealed(), 2);
        let spans: Vec<_> = arena.traces().collect();
        assert_eq!(spans[0].0, 10);
        assert_eq!(spans[0].1.len(), 2);
        assert_eq!(spans[0].2, 2);
        // isOrderedBefore is one entry but two records.
        assert_eq!(spans[1].0, 11);
        assert_eq!(spans[1].1.len(), 2);
        assert_eq!(spans[1].2, 1);
    }

    #[test]
    fn a_trade_carries_the_open_tail_and_keeps_the_location_cache() {
        let mut rec = TraceArena::new();
        for _ in 0..TraceArena::TRADE_MIN_RECORDS {
            rec.push(Event::Write(r(0, 8)).at(loc(1)));
        }
        rec.seal(1);
        rec.push(Event::Fence.at(loc(2))); // open, not sealed
        let sealed = rec.traces().next().unwrap().1.as_ptr();
        let mut batch = TraceArena::new();
        batch.append_sealed(&mut rec); // empty, and long enough: buffers trade places
        assert_eq!(batch.sealed(), 1);
        assert_eq!(batch.traces().next().unwrap().1.as_ptr(), sealed, "traded, not copied");
        // The open fence survived into the recording side's new buffer.
        assert_eq!((rec.sealed(), rec.open_entries()), (0, 1));
        rec.seal(2);
        let (id, words, entries) = rec.traces().next().unwrap();
        assert_eq!((id, entries), (2, 1));
        assert_eq!(words[0].op(), crate::packed::PackedOp::Fence);
        // The recording side's location cache stayed warm.
        rec.take_stats();
        rec.push(Event::Write(r(0, 8)).at(loc(1)));
        assert_eq!(rec.take_stats().interns.arena_hits, 1);
    }

    #[test]
    fn stats_track_slab_growth_and_intern_tiers() {
        let mut arena = TraceArena::new();
        for i in 0..64 {
            // Two alternating sites: first touch falls through to TLS or
            // global, every later one hits the arena-resident cache.
            arena.push(Event::Write(r(0, 8)).at(loc(1)));
            arena.push(Event::Fence.at(loc(2)));
            arena.seal(i);
        }
        let stats = arena.take_stats();
        assert!(stats.slab_allocs >= 1, "growing from empty must count at least one slab");
        assert_eq!(stats.interns.arena_hits, 126, "all but the two first touches hit the arena");
        assert_eq!(stats.interns.tls_hits + stats.interns.global, 2);
        // take_stats resets.
        assert_eq!(arena.take_stats(), ArenaStats::default());

        // A recycled (cleared) arena keeps its slab: no further growth, and
        // the interner stays warm.
        let cap = arena.word_capacity();
        arena.clear();
        for i in 0..64 {
            arena.push(Event::Write(r(0, 8)).at(loc(1)));
            arena.push(Event::Fence.at(loc(2)));
            arena.seal(i);
        }
        assert_eq!(arena.word_capacity(), cap);
        let stats = arena.take_stats();
        assert_eq!(stats.slab_allocs, 0, "recycled slab must not recount");
        assert_eq!(stats.interns.arena_hits, 128, "warm interner hits every entry");
    }

    #[test]
    fn pushed_traces_become_sealed_spans() {
        let mut lone = Trace::new(4);
        lone.push(Event::Write(r(0, 8)).at(loc(1)));
        lone.push(Event::IsOrderedBefore(r(0, 8), r(8, 16)).at(loc(2)));
        let buffer = lone.packed().as_ptr();
        let mut arena = TraceArena::new();
        arena.push_trace(lone);
        // The first trace's buffer is adopted, not copied.
        assert_eq!(arena.traces().next().unwrap().1.as_ptr(), buffer);
        assert_eq!(arena.take_stats().slab_allocs, 0, "adoption is not slab growth");
        arena.push_trace(Trace::new(5)); // empty: still a span
        let mut tail = Trace::new(6);
        tail.push(Event::Fence.at(loc(3)));
        arena.push_trace(tail);
        let spans: Vec<_> = arena.traces().map(|(id, w, n)| (id, w.len(), n)).collect();
        assert_eq!(spans, vec![(4, 3, 2), (5, 0, 0), (6, 1, 1)]);
    }

    /// A cleared arena whose buffer holds the trace keeps that buffer: the
    /// trace is copied in, and the traces pushed behind it fit without
    /// growing the slab.
    #[test]
    fn a_recycled_buffer_is_kept_by_pushed_traces() {
        let trace = |id: u64| {
            let mut t = Trace::new(id);
            t.push(Event::Write(r(0, 8)).at(loc(1)));
            t.push(Event::Fence.at(loc(2)));
            t
        };
        let mut arena = TraceArena::new();
        for id in 0..8 {
            arena.push_trace(trace(id));
        }
        arena.clear();
        arena.take_stats();
        let buffer = arena.words.as_ptr();
        for id in 0..8 {
            arena.push_trace(trace(id));
        }
        assert_eq!(arena.traces().next().unwrap().1.as_ptr(), buffer, "copied, not adopted");
        assert_eq!(arena.take_stats().slab_allocs, 0, "the recycled buffer held the batch");
        assert_eq!(arena.sealed(), 8);
    }

    #[test]
    fn append_sealed_moves_traces_and_keeps_the_open_tail() {
        let mut staged = TraceArena::new();
        let mut rec = TraceArena::new();
        rec.push(Event::Write(r(0, 8)).at(loc(1)));
        rec.seal(1);
        staged.append_sealed(&mut rec); // short: copied
        rec.push(Event::Fence.at(loc(2)));
        rec.push(Event::Write(r(8, 16)).at(loc(3)));
        rec.seal(2);
        rec.push(Event::Fence.at(loc(4))); // open, not sealed
        staged.append_sealed(&mut rec); // copied behind trace 1
        let spans: Vec<_> = staged.traces().map(|(id, w, n)| (id, w.len(), n)).collect();
        assert_eq!(spans, vec![(1, 1, 1), (2, 2, 2)]);
        assert_eq!(staged.traces().nth(1).unwrap().1[1].op(), crate::packed::PackedOp::Write);
        assert_eq!((rec.sealed(), rec.open_entries()), (0, 1));
        assert_eq!(rec.take_stats(), ArenaStats::default(), "tallies moved with the traces");
        let moved = staged.take_stats().interns;
        assert_eq!(
            moved.tls_hits + moved.global,
            4,
            "four sites' first touches moved to the batch"
        );
        rec.seal(3);
        let (id, words, _) = rec.traces().next().unwrap();
        assert_eq!((id, words[0].op()), (3, crate::packed::PackedOp::Fence));
    }

    #[test]
    fn append_sealed_trades_only_long_traces() {
        let record = |arena: &mut TraceArena, records: usize, id: u64| {
            for _ in 0..records {
                arena.push(Event::Fence.at(loc(1)));
            }
            arena.seal(id);
        };
        let mut rec = TraceArena::new();
        record(&mut rec, 3, 1);
        let own = rec.words.as_ptr();
        let mut staged = TraceArena::new();
        staged.append_sealed(&mut rec);
        assert_eq!(
            rec.words.as_ptr(),
            own,
            "a short trace is copied: the recorder keeps its buffer"
        );
        let mut long = TraceArena::new();
        record(&mut long, TraceArena::TRADE_MIN_RECORDS, 2);
        let records = long.words.as_ptr();
        let mut staged = TraceArena::new();
        staged.append_sealed(&mut long);
        assert_eq!(staged.traces().next().unwrap().1.as_ptr(), records, "a long one trades");
    }

    #[test]
    fn clear_recycles_allocations() {
        let mut arena = TraceArena::new();
        for i in 0..100 {
            arena.push(Event::Write(r(0, 8)).at(loc(1)));
            arena.seal(i);
        }
        let cap = arena.word_capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.sealed(), 0);
        assert_eq!(arena.word_capacity(), cap, "clear must keep the backing buffer");
    }

    #[test]
    fn clear_frees_a_buffer_over_the_retention_cap() {
        let mut arena = TraceArena::new();
        for _ in 0..=TraceArena::RETAINED_WORDS {
            arena.push(Event::Fence.at(loc(1)));
        }
        arena.seal(0);
        assert!(arena.word_capacity() > TraceArena::RETAINED_WORDS);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.word_capacity(), 0, "one long trace's buffer is not kept");
    }
}
