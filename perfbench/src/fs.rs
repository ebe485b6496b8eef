//! `pmfs-filebench`: the Table 4 "NFS Filebench, 8 clients" shape on the
//! PMFS-like file system with journal transaction checkers, one trace per
//! client. A few very long traces: per-entry replay and the final
//! `GET_RESULT` wait carry the load, ingest almost none.
//!
//! The op stream follows `pmtest_workloads::fsbench::filebench`'s
//! fileserver personality (create / append / read / rename / truncate /
//! unlink over a churning per-client working set), but is generated up
//! front with the expected content of every read, so the timed run receives
//! only generated inputs and every read is checked.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pmtest_core::{check_trace_with, CheckerScratch, PmTestSession, X86Model};
use pmtest_pmem::PmPool;
use pmtest_pmfs::{InodeId, Pmfs, PmfsOptions};
use pmtest_trace::{MemorySink, NullSink, SharedSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::{ratio, Round};
use crate::spans::{Tracer, NONE};
use crate::verdict::{self, Drive};

/// Client count (Table 4: 8 NFS clients).
pub const CLIENTS: usize = 8;
/// File-system ops per round, over all clients.
pub const OPS: usize = 10_000;
/// Simulated PM pool size.
pub const POOL_BYTES: usize = 4 << 20;
/// Inodes (and directory slots) formatted.
pub const INODES: u32 = 128;
const MAX_FILES: usize = 8;
const WRITE_BYTES: usize = 128;
const FILE_LIMIT: usize = 1024;

/// One file-system call; files are named by their per-client creation
/// ordinal, resolved to an inode at run time.
enum FsOp {
    Create(String),
    Write { file: usize, off: u64, data: Vec<u8> },
    Read { file: usize, expect: Vec<u8> },
    Rename { from: String, to: String },
    Truncate { file: usize, size: u64 },
    Unlink(String),
}

/// The generated per-client op streams.
pub struct Filebench {
    clients: Vec<Vec<FsOp>>,
}

struct Live {
    name: String,
    file: usize,
    content: Vec<u8>,
}

fn client_ops(client: usize, ops: usize, seed: u64) -> Vec<FsOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ ((client as u64) << 32));
    let mut live: Vec<Live> = Vec::new();
    let (mut files, mut next_name) = (0usize, 0u64);
    let mut out = Vec::with_capacity(ops);
    while out.len() < ops {
        let action = rng.gen_range(0..100);
        if live.is_empty() || (action < 30 && live.len() < MAX_FILES) {
            let name = format!("c{client}-f{next_name}");
            next_name += 1;
            out.push(FsOp::Create(name.clone()));
            live.push(Live { name, file: files, content: Vec::new() });
            files += 1;
            continue;
        }
        let i = rng.gen_range(0..live.len());
        let f = &mut live[i];
        if action < 65 {
            let off = f.content.len().min(FILE_LIMIT - WRITE_BYTES);
            let data: Vec<u8> = (0..WRITE_BYTES).map(|_| rng.gen()).collect();
            f.content.truncate(off);
            f.content.extend_from_slice(&data);
            out.push(FsOp::Write { file: f.file, off: off as u64, data });
        } else if action < 85 {
            if !f.content.is_empty() {
                let len = f.content.len().min(WRITE_BYTES);
                out.push(FsOp::Read { file: f.file, expect: f.content[..len].to_vec() });
            }
        } else if action < 88 {
            let to = format!("c{client}-r{next_name}");
            next_name += 1;
            out.push(FsOp::Rename { from: std::mem::replace(&mut f.name, to.clone()), to });
        } else if action < 90 {
            let size = f.content.len() / 2;
            f.content.truncate(size);
            out.push(FsOp::Truncate { file: f.file, size: size as u64 });
        } else {
            out.push(FsOp::Unlink(live.remove(i).name));
        }
    }
    out
}

/// Applies one op; `false` when it failed or read the wrong bytes.
fn apply(fs: &Pmfs, inodes: &mut Vec<InodeId>, op: &FsOp) -> bool {
    match op {
        FsOp::Create(name) => fs.create(name).map(|ino| inodes.push(ino)).is_ok(),
        FsOp::Write { file, off, data } => fs.write(inodes[*file], *off, data).is_ok(),
        FsOp::Read { file, expect } => {
            fs.read(inodes[*file], 0, expect.len()).is_ok_and(|got| got == *expect)
        }
        FsOp::Rename { from, to } => fs.rename(from, to).is_ok(),
        FsOp::Truncate { file, size } => fs.truncate(inodes[*file], *size).is_ok(),
        FsOp::Unlink(name) => fs.unlink(name).is_ok(),
    }
}

impl Filebench {
    /// Generates every client's op stream for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { clients: (0..CLIENTS).map(|c| client_ops(c, OPS / CLIENTS, seed)).collect() }
    }

    fn ops(&self) -> usize {
        self.clients.iter().map(Vec::len).sum()
    }

    fn format(sink: SharedSink, checkers: bool) -> Pmfs {
        let opts = PmfsOptions { checkers, inodes: INODES, ..PmfsOptions::default() };
        Pmfs::format(Arc::new(PmPool::new(POOL_BYTES, sink)), opts).expect("format")
    }

    /// Runs every client's stream in turn; under PMTest each client's
    /// stream ends with one `send_trace`, timed as part of its last op.
    fn drive(&self, fs: &Pmfs, session: Option<&PmTestSession>, tr: &mut Tracer) -> Drive {
        let mut d = Drive::new(self.ops());
        let first = Instant::now();
        let mut last = first;
        let mut n = 0u64;
        for ops in &self.clients {
            let mut inodes = Vec::new();
            for (j, op) in ops.iter().enumerate() {
                let start = Instant::now();
                let span = tr.begin("op", NONE, n, start);
                d.failed_ops += u64::from(!apply(fs, &mut inodes, op));
                let end = match session {
                    Some(s) if j + 1 == ops.len() => d.send(tr, s, span, n),
                    _ => Instant::now(),
                };
                d.op_done(tr, span, start, end, true);
                last = end;
                n += 1;
            }
        }
        d.window = (first, last);
        d
    }

    /// One round: the native twin (`NullSink`, no checkers), then the run
    /// under PMTest until `finish()` returns the report, then the file
    /// system's consistency check.
    pub fn round(&self, tr: &mut Tracer) -> Round {
        let native = {
            let fs = Self::format(Arc::new(NullSink), false);
            self.drive(&fs, None, &mut Tracer::new(false))
        };
        let t0 = Instant::now();
        let session = PmTestSession::builder().build();
        let fs = Self::format(session.sink(), true);
        session.start();
        let setup = t0.elapsed();

        let d = self.drive(&fs, Some(&session), tr);
        let (mut round, report) = verdict::finish(&session, d, &native, setup, CLIENTS as u64, tr);
        round.fail(
            verdict::unclean_traces(&report),
            format!("report not clean: {}", report.summary()),
        );
        if let Err(e) = fs.check_consistency() {
            round.fail(1, format!("check_consistency failed: {e}"));
        }
        round
    }

    /// The checker alone: re-runs each client's stream into a
    /// `MemorySink`, takes its trace, and times `check_trace_with` on one
    /// reused `CheckerScratch`.
    pub fn offline_check(&self, tr: &mut Tracer) -> BTreeMap<&'static str, f64> {
        let sink = Arc::new(MemorySink::new());
        let fs = Self::format(sink.clone(), true);
        let _ = sink.take_trace(0); // formatting is set-up, not client work
        let model = X86Model::new();
        let mut scratch = CheckerScratch::new();
        let (mut entries, mut diags, mut check_ns) = (0u64, 0u64, 0u64);
        for (c, ops) in self.clients.iter().enumerate() {
            let mut inodes = Vec::new();
            for op in ops {
                assert!(apply(&fs, &mut inodes, op), "offline replay op failed");
            }
            let trace = sink.take_trace(c as u64);
            let t = Instant::now();
            let found = check_trace_with(&trace, &model, &mut scratch);
            let end = Instant::now();
            tr.span("check_trace", NONE, c as u64, t, end);
            check_ns += end.duration_since(t).as_nanos() as u64;
            entries += trace.len() as u64;
            diags += found.len() as u64;
        }
        BTreeMap::from([
            ("checker.ns_per_entry", ratio(check_ns as f64, entries as f64)),
            ("checker.ns_per_trace", check_ns as f64 / CLIENTS as f64),
            ("checker.diags_per_trace", diags as f64 / CLIENTS as f64),
        ])
    }
}
