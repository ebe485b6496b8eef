//! Quickstart: find the paper's Fig. 1a bug with the two low-level checkers.
//!
//! The program backs an array element up, sets a `valid` flag, and updates
//! in place — but misses two persist barriers, so the flag can reach
//! persistence before the backup it vouches for. PMTest reports the
//! violated ordering; the fixed version passes.
//!
//! Run with: `cargo run --example quickstart`

use pmtest::pmem::PmError;
use pmtest::prelude::*;

/// Offsets of the "array" and its backup record inside the pool.
const ARRAY: u64 = 0x000;
const BACKUP_VAL: u64 = 0x100;
const BACKUP_VALID: u64 = 0x140;

/// The buggy `ArrayUpdate` of Fig. 1a: only two persist barriers, so the
/// `valid` flag is not ordered after the backup value.
fn array_update_buggy(
    pool: &PmPool,
    session: &PmTestSession,
    index: u64,
    new_val: u64,
) -> Result<(), PmError> {
    let old = pool.read_u64(ARRAY + index * 8)?;
    let val = pool.write_u64(BACKUP_VAL, old)?; // backup.val = array[index]
    let valid = pool.write_u8(BACKUP_VALID, 1)?; // backup.valid = true
    pool.flush(val);
    pool.flush(valid);
    pool.fence(); // one barrier for both: their persist order is unconstrained!
                  // The programmer's intent, asserted where it matters: the backup value
                  // must be durable before the valid flag can persist.
    session.is_ordered_before(val, valid);
    let upd = pool.write_u64(ARRAY + index * 8, new_val)?; // in-place update
    let invalid = pool.write_u8(BACKUP_VALID, 0)?; // backup.valid = false
    pool.flush(upd);
    pool.flush(invalid);
    pool.fence(); // same problem again
    session.is_ordered_before(upd, invalid);
    session.is_persist(invalid);
    Ok(())
}

/// The fixed version: a barrier after every ordering-relevant store.
fn array_update_fixed(
    pool: &PmPool,
    session: &PmTestSession,
    index: u64,
    new_val: u64,
) -> Result<(), PmError> {
    let old = pool.read_u64(ARRAY + index * 8)?;
    let val = pool.write_u64(BACKUP_VAL, old)?;
    pool.persist_barrier(val); // missing in the buggy version
    let valid = pool.write_u8(BACKUP_VALID, 1)?;
    pool.persist_barrier(valid);
    session.is_ordered_before(val, valid);
    let upd = pool.write_u64(ARRAY + index * 8, new_val)?;
    pool.persist_barrier(upd); // missing in the buggy version
    let invalid = pool.write_u8(BACKUP_VALID, 0)?;
    pool.persist_barrier(invalid);
    session.is_ordered_before(upd, invalid);
    session.is_persist(invalid);
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // PMTest_INIT + PMTest_START (Full telemetry, for the summary line)
    let session = PmTestSession::builder()
        .model(X86Model::new())
        .telemetry(TelemetryConfig::at(TelemetryLevel::Full))
        .build();
    session.start();
    let pool = PmPool::new(4096, session.sink());

    println!("== buggy ArrayUpdate (Fig. 1a) ==");
    array_update_buggy(&pool, &session, 3, 0xC0FFEE)?;
    session.send_trace();
    let report = session.take_report();
    println!("{report}\n");
    assert!(report.fail_count() > 0, "the bug must be detected");

    println!("== fixed ArrayUpdate ==");
    array_update_fixed(&pool, &session, 3, 0xC0FFEE)?;
    session.send_trace();
    let report = session.finish();
    println!("{report}");
    assert!(report.is_clean(), "the fix must pass");
    println!("\n{}", session.telemetry_summary());
    Ok(())
}
