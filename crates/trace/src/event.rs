use std::fmt;
use std::panic::Location;

use pmtest_interval::ByteRange;

/// The source location (file and line) that issued a traced operation.
///
/// The paper's engine reports `WARN/FAIL @<file>:<line>` (Fig. 6); this type
/// captures that attribution via [`std::panic::Location`], so instrumented
/// library methods annotated with `#[track_caller]` attribute events to the
/// *application* call site rather than to library internals.
///
/// # Examples
///
/// ```
/// use pmtest_trace::SourceLoc;
///
/// let loc = SourceLoc::here();
/// assert!(loc.file().ends_with(".rs"));
/// assert!(loc.line() > 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceLoc {
    file: &'static str,
    line: u32,
}

impl SourceLoc {
    /// Captures the caller's location.
    #[must_use]
    #[track_caller]
    pub fn here() -> Self {
        let loc = Location::caller();
        Self { file: loc.file(), line: loc.line() }
    }

    /// Creates a location from explicit parts (useful in tests and when
    /// replaying recorded traces).
    #[must_use]
    pub fn new(file: &'static str, line: u32) -> Self {
        Self { file, line }
    }

    /// The source file path.
    #[must_use]
    pub fn file(&self) -> &'static str {
        self.file
    }

    /// The 1-based line number.
    #[must_use]
    pub fn line(&self) -> u32 {
        self.line
    }

    /// Equality tuned for hot-path cache scans: `#[track_caller]` hands out
    /// the same `&'static str` per call site, so the file comparison is
    /// almost always settled by pointer identity instead of a `memcmp` of
    /// the path. Falls back to content equality for hand-built locations.
    #[must_use]
    #[inline]
    pub fn same_site(&self, other: &Self) -> bool {
        self.line == other.line && (std::ptr::eq(self.file, other.file) || self.file == other.file)
    }
}

impl fmt::Debug for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

impl fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// A traced persistent-memory operation or checker.
///
/// The first group mirrors the low-level primitives of the x86 persistency
/// model (`write`, `clwb`, `sfence`) and of HOPS (`ofence`, `dfence`, §5.2).
/// The second group are the transactional-library operations PMTest tracks to
/// drive its high-level checkers (§5.1.1). The third group are the checkers
/// and scope-control calls of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Event {
    /// A store to persistent memory.
    Write(ByteRange),
    /// A cache-line writeback (`clwb`/`clflushopt`) of the given range.
    Flush(ByteRange),
    /// An `sfence`: orders and completes prior flushes (x86 model).
    Fence,
    /// HOPS ordering fence: orders prior writes without forcing durability.
    OFence,
    /// HOPS durability fence: stalls until all prior writes are durable.
    DFence,
    /// A transaction begins (`TX_BEGIN`).
    TxBegin,
    /// A transaction ends (`TX_END`).
    TxEnd,
    /// The range is backed up in the transaction's undo log (`TX_ADD`).
    TxAdd(ByteRange),
    /// Checker: has the range persisted since its last update?
    IsPersist(ByteRange),
    /// Checker: do all persists of the first range complete before any
    /// persist of the second can happen?
    IsOrderedBefore(ByteRange, ByteRange),
    /// Opens a transaction-checking scope (`TX_CHECKER_START`).
    TxCheckerStart,
    /// Closes a transaction-checking scope (`TX_CHECKER_END`), auto-injecting
    /// `IsPersist` for every modified, non-excluded object.
    TxCheckerEnd,
    /// Removes a persistent object from the testing scope
    /// (`PMTest_EXCLUDE`).
    Exclude(ByteRange),
    /// Adds a previously excluded object back (`PMTest_INCLUDE`).
    Include(ByteRange),
}

/// Coarse classification of an [`Event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A PM operation executed by the program (write/flush/fence/tx ops).
    Operation,
    /// A checker placed by the programmer (or injected by a high-level
    /// checker).
    Checker,
    /// A scope-control call (exclude/include).
    Scope,
}

impl Event {
    /// Classifies the event.
    #[must_use]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Write(_)
            | Event::Flush(_)
            | Event::Fence
            | Event::OFence
            | Event::DFence
            | Event::TxBegin
            | Event::TxEnd
            | Event::TxAdd(_) => EventKind::Operation,
            Event::IsPersist(_)
            | Event::IsOrderedBefore(_, _)
            | Event::TxCheckerStart
            | Event::TxCheckerEnd => EventKind::Checker,
            Event::Exclude(_) | Event::Include(_) => EventKind::Scope,
        }
    }

    /// Wraps the event into an [`Entry`] attributed to the caller.
    #[must_use]
    #[track_caller]
    pub fn here(self) -> Entry {
        Entry { event: self, loc: SourceLoc::here() }
    }

    /// Wraps the event into an [`Entry`] with an explicit location.
    #[must_use]
    pub fn at(self, loc: SourceLoc) -> Entry {
        Entry { event: self, loc }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Write(r) => write!(f, "write({r})"),
            Event::Flush(r) => write!(f, "clwb({r})"),
            Event::Fence => write!(f, "sfence"),
            Event::OFence => write!(f, "ofence"),
            Event::DFence => write!(f, "dfence"),
            Event::TxBegin => write!(f, "tx_begin"),
            Event::TxEnd => write!(f, "tx_end"),
            Event::TxAdd(r) => write!(f, "tx_add({r})"),
            Event::IsPersist(r) => write!(f, "isPersist({r})"),
            Event::IsOrderedBefore(a, b) => write!(f, "isOrderedBefore({a}, {b})"),
            Event::TxCheckerStart => write!(f, "tx_checker_start"),
            Event::TxCheckerEnd => write!(f, "tx_checker_end"),
            Event::Exclude(r) => write!(f, "exclude({r})"),
            Event::Include(r) => write!(f, "include({r})"),
        }
    }
}

/// One trace record: an [`Event`] plus the [`SourceLoc`] that issued it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Entry {
    /// The traced operation or checker.
    pub event: Event,
    /// Where in the program it was issued.
    pub loc: SourceLoc,
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.event, self.loc)
    }
}

/// An ordered batch of trace entries, as shipped to the checking engine by
/// `PMTest_SEND_TRACE` (§4.2).
///
/// Traces are independent units of checking: each gets its own shadow memory
/// and may be validated on any worker thread (§4.4). Dividing a program into
/// per-transaction traces is what lets PMTest pipeline program execution with
/// checking.
///
/// Internally a trace stores the compact binary form — fixed-width
/// [`PackedEntry`](crate::PackedEntry) records with the source location
/// interned at record time — so shipping a trace moves pointer-free `u64`
/// words, not enum payloads. [`entries`](Self::entries) decodes back to
/// [`Entry`] values on demand.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    id: u64,
    /// Logical entry count: `isOrderedBefore` packs into two records, so
    /// the record count alone is not the entry count.
    len: u32,
    words: Vec<crate::PackedEntry>,
}

impl Trace {
    /// Creates an empty trace with the given identifier.
    #[must_use]
    pub fn new(id: u64) -> Self {
        Self { id, len: 0, words: Vec::new() }
    }

    /// Creates a trace from pre-recorded entries.
    #[must_use]
    pub fn from_entries(id: u64, entries: Vec<Entry>) -> Self {
        let mut trace = Self::new(id);
        trace.extend(entries);
        trace
    }

    /// Creates a trace directly from packed records. `len` is the logical
    /// entry count the records decode to.
    #[must_use]
    pub fn from_packed(id: u64, words: Vec<crate::PackedEntry>, len: u32) -> Self {
        Self { id, len, words }
    }

    /// The trace identifier (assigned in submission order).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The recorded entries in program order, decoded from the packed form.
    /// Allocates; hot paths should walk [`packed`](Self::packed) instead.
    #[must_use]
    pub fn entries(&self) -> Vec<Entry> {
        crate::packed::decode_all(&self.words)
    }

    /// The packed records backing this trace.
    #[must_use]
    pub fn packed(&self) -> &[crate::PackedEntry] {
        &self.words
    }

    /// Number of recorded entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the trace holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an entry, encoding it in place.
    pub fn push(&mut self, entry: Entry) {
        crate::packed::encode_into(&mut self.words, entry);
        self.len += 1;
    }

    /// Consumes the trace, returning its decoded entries.
    #[must_use]
    pub fn into_entries(self) -> Vec<Entry> {
        self.entries()
    }

    /// Consumes the trace, returning the packed record buffer (a
    /// [`TraceArena`](crate::TraceArena) adopts it without a copy).
    #[must_use]
    pub fn into_packed(self) -> Vec<crate::PackedEntry> {
        self.words
    }
}

impl fmt::Display for Trace {
    /// One entry per line, in program order — handy when debugging a
    /// checker verdict.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace #{} ({} entries)", self.id, self.len)?;
        for (i, entry) in self.entries().iter().enumerate() {
            writeln!(f, "  [{i:>4}] {} @ {}", entry.event, entry.loc)?;
        }
        Ok(())
    }
}

impl Extend<Entry> for Trace {
    fn extend<T: IntoIterator<Item = Entry>>(&mut self, iter: T) {
        for entry in iter {
            self.push(entry);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(s: u64, e: u64) -> ByteRange {
        ByteRange::new(s, e)
    }

    #[test]
    fn source_loc_captures_this_file() {
        let loc = SourceLoc::here();
        assert!(loc.file().contains("event.rs"));
        assert_eq!(format!("{loc}"), format!("{}:{}", loc.file(), loc.line()));
    }

    #[test]
    fn track_caller_propagates_through_here() {
        #[track_caller]
        fn helper() -> Entry {
            Event::Fence.here()
        }
        let entry = helper();
        assert!(entry.loc.file().contains("event.rs"));
    }

    #[test]
    fn event_kinds() {
        assert_eq!(Event::Write(r(0, 8)).kind(), EventKind::Operation);
        assert_eq!(Event::Flush(r(0, 8)).kind(), EventKind::Operation);
        assert_eq!(Event::Fence.kind(), EventKind::Operation);
        assert_eq!(Event::TxAdd(r(0, 8)).kind(), EventKind::Operation);
        assert_eq!(Event::IsPersist(r(0, 8)).kind(), EventKind::Checker);
        assert_eq!(Event::IsOrderedBefore(r(0, 8), r(8, 16)).kind(), EventKind::Checker);
        assert_eq!(Event::TxCheckerEnd.kind(), EventKind::Checker);
        assert_eq!(Event::Exclude(r(0, 8)).kind(), EventKind::Scope);
    }

    #[test]
    fn event_display_is_readable() {
        assert_eq!(format!("{}", Event::Fence), "sfence");
        assert_eq!(format!("{}", Event::Write(r(0x10, 0x18))), "write(0x10+8)");
        assert!(
            format!("{}", Event::IsOrderedBefore(r(0, 8), r(8, 16))).starts_with("isOrderedBefore")
        );
    }

    #[test]
    fn trace_accumulates_in_order() {
        let mut t = Trace::new(7);
        t.push(Event::Write(r(0, 8)).here());
        t.extend([Event::Fence.here()]);
        assert_eq!(t.id(), 7);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.entries()[0].event, Event::Write(r(0, 8)));
        assert_eq!(t.entries()[1].event, Event::Fence);
        let entries = t.into_entries();
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn trace_display_lists_entries() {
        let mut t = Trace::new(3);
        t.push(Event::Write(r(0, 8)).at(SourceLoc::new("x.rs", 9)));
        t.push(Event::Fence.at(SourceLoc::new("x.rs", 10)));
        let s = t.to_string();
        assert!(s.contains("trace #3 (2 entries)"));
        assert!(s.contains("write(0x0+8) @ x.rs:9"));
        assert!(s.contains("sfence @ x.rs:10"));
    }

    #[test]
    fn entry_debug_contains_location() {
        let e = Event::Fence.at(SourceLoc::new("foo.rs", 42));
        assert_eq!(format!("{e:?}"), "sfence @ foo.rs:42");
    }
}
