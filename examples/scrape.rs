//! Live scrape endpoint end to end: run an engine with
//! [`TelemetryConfig::scrape_addr`] set, drive a workload, and scrape the
//! endpoint over plain TCP exactly like a Prometheus poller would — no HTTP
//! client library, just `std::net::TcpStream`.
//!
//! The scraped JSON snapshot is written to `bench_results/SCRAPE_demo.json`
//! so CI can re-parse it with `obs-check`, proving the bytes served over the
//! wire are the same machine-readable document the in-process API returns.
//!
//! Run with: `cargo run --release --example scrape`

use std::io::{Read, Write};
use std::net::TcpStream;

use pmtest::prelude::*;

const TRACES: u64 = 200;

/// One `GET` against the scrape endpoint; returns `(headers, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<(String, String)> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: pmtest\r\n\r\n").as_bytes())?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)?; // server sends Connection: close
    raw.split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_owned(), b.to_owned()))
        .ok_or_else(|| std::io::Error::other("malformed HTTP response"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Port 0: let the OS pick, so the demo never collides with a real
    // exporter. A deployment would pin something like "127.0.0.1:9184".
    let session = PmTestSession::builder()
        .workers(2)
        .telemetry(TelemetryConfig::at(TelemetryLevel::Full).with_scrape("127.0.0.1:0"))
        .build();
    let addr = session.scrape_addr().expect("scrape endpoint configured");
    println!("scrape endpoint live at http://{addr}/metrics");

    session.start();
    let pool = PmPool::new(4096, session.sink());
    for i in 0..TRACES {
        let r = pool.write_u64((i % 64) * 8, i).expect("write");
        pool.persist_barrier(r);
        session.is_persist(r);
        session.send_trace();
    }
    let report = session.report();
    assert!(report.is_clean(), "demo traces must check clean");

    // Scrape like Prometheus: text exposition from /metrics.
    let (head, prom) = http_get(addr, "/metrics")?;
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    println!("\n== GET /metrics (excerpt) ==");
    for line in prom.lines().filter(|l| {
        l.starts_with("engine_traces_checked")
            || l.starts_with("engine_workers")
            || l.starts_with("engine_ring_")
            || l.starts_with("engine_parker_")
    }) {
        println!("{line}");
    }
    assert!(prom.contains(&format!("engine_traces_checked {TRACES}")), "live counter served");
    assert!(prom.contains("engine_stage_ns"), "stage histograms served");

    // And the JSON document from /snapshot.json — saved for obs-check.
    let (head, body) = http_get(addr, "/snapshot.json")?;
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let doc = pmtest::obs::json::parse(&body).expect("served JSON parses");
    assert!(doc.get("counters").is_some(), "snapshot document shape");
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/bench_results");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/SCRAPE_demo.json");
    std::fs::write(&path, &body)?;
    println!("\nwrote {path} ({} bytes straight off the wire)", body.len());

    // The endpoint dies with the engine: dropping the last session handles
    // (the pool holds a sink clone) stops the serving thread.
    drop(pool);
    drop(session);
    assert!(
        TcpStream::connect(addr).is_err() || {
            let mut c = TcpStream::connect(addr)?;
            c.set_read_timeout(Some(std::time::Duration::from_millis(500)))?;
            c.write_all(b"GET /metrics HTTP/1.1\r\n\r\n")?;
            let mut s = String::new();
            c.read_to_string(&mut s).unwrap_or(0) == 0
        },
        "endpoint must stop serving after engine shutdown"
    );
    println!("endpoint shut down with the engine");
    Ok(())
}
