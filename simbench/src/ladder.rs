//! Layer-ladder rungs shared by the workloads: each one replays a single
//! layer's public functions on a workload's own inputs, with nothing of
//! the layers above it. Subtracting one rung from the next attributes
//! wall time from outside the program.

use crate::median;
use crate::spans::Spans;
use smartssd::SystemConfig;
use smartssd_device::{GetResponse, SmartSsd};
use smartssd_exec::join::{probe_page, JoinHashTable, JoinSink};
use smartssd_exec::spec::QueryOp;
use smartssd_exec::WorkCounts;
use smartssd_exec::{decode_op, encode_op, scan_agg_page, scan_group_agg_page, GroupTable};
use smartssd_query::Catalog;
use smartssd_sim::{LatencyStats, SimTime};
use smartssd_storage::expr::AggState;
use smartssd_storage::TableImage;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each rung; the rung reports their median.
pub const REPS: usize = 5;

/// Wall nanoseconds per input row of the operator kernel behind `op`,
/// run over the pages of `probe` (and, for a join, a hash table built
/// from `build`), with no simulator around it.
pub fn kernel_ns_per_row(
    sp: &mut Spans,
    label: &str,
    op: &QueryOp,
    probe: &TableImage,
    build: Option<&TableImage>,
) -> f64 {
    let rows = probe.num_rows().max(1) as f64;
    let mut per_row = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        sp.time(
            "exec.kernel",
            || label.to_string(),
            |_| run_kernel(op, probe, build),
        );
        per_row.push(t.elapsed().as_nanos() as f64 / rows);
    }
    median(&per_row)
}

fn run_kernel(op: &QueryOp, probe: &TableImage, build: Option<&TableImage>) {
    let mut w = WorkCounts::default();
    let schema = probe.schema();
    match op {
        QueryOp::ScanAgg { spec, .. } => {
            let mut states: Vec<AggState> =
                spec.aggs.iter().map(|a| AggState::new(a.func)).collect();
            for p in probe.pages() {
                scan_agg_page(p, schema, spec, &mut states, &mut w);
            }
            black_box(&states);
        }
        QueryOp::GroupAgg { spec, .. } => {
            let mut acc = GroupTable::new();
            for p in probe.pages() {
                scan_group_agg_page(p, schema, spec, &mut acc, &mut w);
            }
            black_box(&acc);
        }
        QueryOp::Join { spec, .. } => {
            let build = build.expect("a join replays with its build table");
            let ht = JoinHashTable::build(build.pages(), &spec.build, &mut w);
            let joined = spec.joined_schema(schema);
            let mut sink = JoinSink::new(spec);
            for p in probe.pages() {
                probe_page(p, schema, spec, &ht, &joined, &mut sink, &mut w);
            }
            black_box(&sink.aggs);
        }
        QueryOp::Scan { .. } => unreachable!("the benchmark runs no plain scans"),
    }
    black_box(w);
}

/// A bare Smart SSD built from `cfg` with `tables` loaded back to back,
/// and the catalog that resolves queries against it.
pub fn bare_device(cfg: &SystemConfig, tables: &[(&str, &TableImage)]) -> (SmartSsd, Catalog) {
    let mut dev = SmartSsd::new(cfg.flash.clone(), cfg.smart.clone());
    let mut catalog = Catalog::new();
    let mut lba = 0;
    for (name, img) in tables {
        let table = dev.load_table(img, lba).expect("bare device load");
        lba += table.num_pages;
        catalog.register(*name, table);
    }
    (dev, catalog)
}

/// Wall milliseconds of one bare device session (OPEN, GET until done,
/// CLOSE) of `op` on `dev`, from a reset timeline.
pub fn session_ms(sp: &mut Spans, label: &str, dev: &mut SmartSsd, op: &QueryOp) -> f64 {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        dev.reset_timing();
        let t = Instant::now();
        sp.time(
            "device.session",
            || label.to_string(),
            |_| {
                let sid = dev
                    .open(op, SimTime::ZERO)
                    .expect("bare OPEN on a healthy device");
                let mut now = SimTime::ZERO;
                loop {
                    match dev.get(sid, now).expect("bare GET on a healthy device") {
                        GetResponse::Batch(b) => {
                            black_box(b);
                        }
                        GetResponse::Running { ready_at } => now = ready_at,
                        GetResponse::Done => break,
                    }
                }
                dev.close(sid).expect("bare CLOSE of an open session");
            },
        );
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}

/// Wall nanoseconds per `encode_op` and per `decode_op` call over the
/// OPEN payloads of `ops`.
pub fn wire_ns(sp: &mut Spans, ops: &[QueryOp]) -> (f64, f64) {
    const CALLS: usize = 2_000;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        for op in ops {
            let t = Instant::now();
            let bytes = sp.time("exec.wire_encode", String::new, |_| {
                let mut last = Vec::new();
                for _ in 0..CALLS {
                    last = encode_op(black_box(op));
                }
                last
            });
            enc.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
            let t = Instant::now();
            sp.time("exec.wire_decode", String::new, |_| {
                for _ in 0..CALLS {
                    black_box(decode_op(black_box(&bytes)).expect("decode what encode made"));
                }
            });
            dec.push(t.elapsed().as_nanos() as f64 / CALLS as f64);
        }
    }
    (median(&enc), median(&dec))
}

/// Wall milliseconds of `LatencyStats::from_sample` over `sample`.
pub fn latency_stats_ms(sp: &mut Spans, sample: &[SimTime]) -> f64 {
    let mut ms = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        sp.time("sim.latency_stats", String::new, |_| {
            black_box(LatencyStats::from_sample(black_box(sample)))
        });
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&ms)
}
