//! `paper-scan`: a closed loop of the paper's cold runs on LINEITEM and
//! PART at TPC-H SF 0.05 (about 43 MB of pages per layout, twenty times
//! a 2 MB L2).
//!
//! One pass is nine runs, each on a cleared buffer pool (the paper's
//! cold-run protocol): Q6 and Q14 on the Figure 3/7 configurations
//! (regular SSD with NSM pages, Smart SSD with NSM, Smart SSD with PAX),
//! Q1 pushed down and on the host route, and Q6 scattered over a
//! 2-device fleet. Per-row kernel work, page decode, flash timing and the
//! host engine dominate; admission does nothing.

use crate::ladder;
use crate::spans::Spans;
use crate::{add, add_work, latency_figures, Answer, Metrics, Phase, Scale, Workload};
use smartssd::{
    DeviceKind, FleetOptions, Query, QueryResult, RunError, RunOptions, RunReport, SimTime,
    SmartSsdFleet, System, SystemBuilder,
};
use smartssd_query::Route;
use smartssd_storage::{Layout, TableBuilder, TableImage, Tuple};
use smartssd_workload::{q1, q14, q6, queries, tpch};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Devices in the fleet the Q6 scatter runs on.
pub const FLEET_DEVICES: usize = 2;

/// The paper's Smart-SSD-PAX-over-SSD speedups: Figure 3 (Q6), Figure 7
/// (Q14).
pub const PAPER_SPEEDUP_Q6: f64 = 1.7;
/// See [`PAPER_SPEEDUP_Q6`].
pub const PAPER_SPEEDUP_Q14: f64 = 1.3;

/// TPC-H scale factor of the workload.
fn scale_factor(scale: Scale) -> f64 {
    match scale {
        Scale::Bench => 0.05,
        Scale::Test => 0.002,
    }
}

/// The workload's state between set-up and the timed phase.
pub struct PaperScan {
    ssd: System,
    smart_nsm: System,
    smart_pax: System,
    fleet: SmartSsdFleet,
    /// Q6, Q14, Q1.
    queries: [Query; 3],
    /// Regular-SSD answers of [`Self::queries`], computed in set-up.
    refs: [Answer; 3],
    lineitem_pax: TableImage,
    part_pax: TableImage,
    pages: u64,
    /// Simulated latencies of the last phase (the ladder replays
    /// `LatencyStats` over them).
    latencies: Vec<SimTime>,
}

/// One system run of a pass: which system, which query, which route.
#[derive(Clone, Copy)]
enum Target {
    Ssd,
    SmartNsm,
    SmartPax,
    SmartPaxHost,
}

/// The pass, in order: (query index, target, label).
const RUNS: [(usize, Target, &str); 8] = [
    (0, Target::Ssd, "q6.ssd-nsm"),
    (0, Target::SmartNsm, "q6.smart-nsm"),
    (0, Target::SmartPax, "q6.smart-pax"),
    (1, Target::Ssd, "q14.ssd-nsm"),
    (1, Target::SmartNsm, "q14.smart-nsm"),
    (1, Target::SmartPax, "q14.smart-pax"),
    (2, Target::SmartPax, "q1.smart-pax"),
    (2, Target::SmartPaxHost, "q1.smart-pax-host"),
];

fn build(
    name: &str,
    schema: &Arc<smartssd_storage::Schema>,
    layout: Layout,
    rows: &[Tuple],
) -> TableImage {
    let mut b = TableBuilder::new(name, Arc::clone(schema), layout);
    b.extend(rows.iter().cloned());
    b.finish()
}

fn system(
    kind: DeviceKind,
    layout: Layout,
    lineitem: &TableImage,
    part: &TableImage,
) -> Result<System, RunError> {
    let mut sys = SystemBuilder::new(kind, layout).build();
    sys.load_table(queries::LINEITEM, lineitem)?;
    sys.load_table(queries::PART, part)?;
    sys.finish_load();
    Ok(sys)
}

/// Exact figures a phase accumulates.
#[derive(Default)]
pub struct Tally {
    exact: BTreeMap<String, f64>,
    latencies: Vec<SimTime>,
    elapsed: SimTime,
    completed: u64,
    attempted: u64,
    failed: u64,
    /// Summed elapsed of Q6 and Q14 on the regular SSD and on Smart PAX.
    q6: (SimTime, SimTime),
    q14: (SimTime, SimTime),
}

impl Tally {
    /// Books one finished call; `report` carries energy and utilization
    /// when the call returned a `RunReport`.
    fn record(&mut self, ok: bool, result: &QueryResult, report: Option<&RunReport>) {
        if !ok {
            self.failed += 1;
            return;
        }
        self.completed += 1;
        self.elapsed += result.elapsed;
        self.latencies.push(result.elapsed);
        add_work(&mut self.exact, &result.work);
        // Every run is cold, so each page it visits is one flash read.
        add(&mut self.exact, "flash.reads", result.work.pages as f64);
        if let Some(r) = report {
            add(&mut self.exact, "sim_energy_j", r.energy.system_j);
            for (name, (busy_ns, _)) in &r.util.components {
                add(
                    &mut self.exact,
                    &format!("sim.busy_ms.{name}"),
                    *busy_ns as f64 / 1e6,
                );
            }
        }
    }
}

impl PaperScan {
    fn system_for(&mut self, t: Target) -> (&mut System, RunOptions) {
        match t {
            Target::Ssd => (&mut self.ssd, RunOptions::default()),
            Target::SmartNsm => (&mut self.smart_nsm, RunOptions::default()),
            Target::SmartPax => (&mut self.smart_pax, RunOptions::routed(Route::Device)),
            Target::SmartPaxHost => (&mut self.smart_pax, RunOptions::routed(Route::Host)),
        }
    }
}

impl Workload for PaperScan {
    type Tally = Tally;
    const SETUPS: usize = 5;
    const PASS_S: f64 = 0.2;

    fn setup(seed: u64, scale: Scale, sp: &mut Spans) -> Result<Self, String> {
        let sf = scale_factor(scale);
        let li_schema = tpch::lineitem_schema();
        let part_schema = tpch::part_schema();
        let (li_rows, part_rows) = sp.time("workload.gen", String::new, |_| {
            (
                tpch::lineitem_rows(sf, seed).collect::<Vec<_>>(),
                tpch::part_rows(sf, seed).collect::<Vec<_>>(),
            )
        });
        let (li_nsm, li_pax, part_nsm, part_pax) = sp.time("storage.build", String::new, |_| {
            (
                build(queries::LINEITEM, &li_schema, Layout::Nsm, &li_rows),
                build(queries::LINEITEM, &li_schema, Layout::Pax, &li_rows),
                build(queries::PART, &part_schema, Layout::Nsm, &part_rows),
                build(queries::PART, &part_schema, Layout::Pax, &part_rows),
            )
        });
        let pages = [&li_nsm, &li_pax, &part_nsm, &part_pax]
            .iter()
            .map(|i| i.num_pages() as u64)
            .sum();
        let (ssd, smart_nsm, smart_pax, fleet) = sp
            .time("core.load", String::new, |_| -> Result<_, RunError> {
                let ssd = system(DeviceKind::Ssd, Layout::Nsm, &li_nsm, &part_nsm)?;
                let smart_nsm = system(DeviceKind::SmartSsd, Layout::Nsm, &li_nsm, &part_nsm)?;
                let smart_pax = system(DeviceKind::SmartSsd, Layout::Pax, &li_pax, &part_pax)?;
                let mut fleet = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax)
                    .build_fleet(FLEET_DEVICES, FleetOptions::default());
                fleet.load_partitioned(queries::LINEITEM, &li_schema, li_rows)?;
                fleet.finish_load();
                Ok((ssd, smart_nsm, smart_pax, fleet))
            })
            .map_err(|e| format!("paper-scan load: {e}"))?;
        let queries = [q6(), q14(), q1()];
        let mut ws = Self {
            ssd,
            smart_nsm,
            smart_pax,
            fleet,
            refs: Default::default(),
            queries,
            lineitem_pax: li_pax,
            part_pax,
            pages,
            latencies: Vec::new(),
        };
        sp.time("core.warmup", String::new, |sp| -> Result<(), String> {
            for qi in 0..3 {
                ws.ssd.clear_cache();
                let rep = ws
                    .ssd
                    .run(&ws.queries[qi], RunOptions::default())
                    .map_err(|e| format!("paper-scan reference {}: {e}", ws.queries[qi].name))?;
                ws.refs[qi] = Answer::of(&rep.result);
            }
            ws.pass(0, sp, &mut Tally::default());
            Ok(())
        })?;
        Ok(ws)
    }

    fn pass(&mut self, _i: usize, sp: &mut Spans, t: &mut Tally) {
        for (qi, target, label) in RUNS {
            let query = self.queries[qi].clone();
            let (sys, opts) = self.system_for(target);
            sys.clear_cache();
            sp.next_op();
            let res = sp.time("core.run", || label.to_string(), |_| sys.run(&query, opts));
            t.attempted += 1;
            match res {
                Ok(rep) => {
                    let ok = self.refs[qi].matches(&rep.result);
                    let e = rep.result.elapsed;
                    match (qi, target) {
                        (0, Target::Ssd) => t.q6.0 += e,
                        (0, Target::SmartPax) => t.q6.1 += e,
                        (1, Target::Ssd) => t.q14.0 += e,
                        (1, Target::SmartPax) => t.q14.1 += e,
                        _ => {}
                    }
                    t.record(ok, &rep.result, Some(&rep));
                }
                Err(_) => t.failed += 1,
            }
        }
        self.fleet.clear_host_cache();
        sp.next_op();
        let q6 = &self.queries[0];
        let fleet = &mut self.fleet;
        let res = sp.time("core.fleet", || "q6".into(), |_| fleet.run_agg(q6));
        t.attempted += 1;
        match res {
            Ok(rep) => t.record(self.refs[0].matches(&rep.result), &rep.result, None),
            Err(_) => t.failed += 1,
        }
    }

    fn finish(&mut self, mut t: Tally) -> Phase {
        let mut exact = std::mem::take(&mut t.exact);
        let secs = t.elapsed.as_secs_f64();
        exact.insert("sim_elapsed_s".into(), secs);
        exact.insert("sim_goodput_qps".into(), t.completed as f64 / secs);
        latency_figures(&mut exact, &t.latencies);
        let ratio = |(a, b): (SimTime, SimTime)| a.as_secs_f64() / b.as_secs_f64();
        let (s6, s14) = (ratio(t.q6), ratio(t.q14));
        exact.insert("pushdown_speedup".into(), s6);
        // Relative error of the simulated speedups against the paper's.
        exact.insert("paper_error.q6".into(), (s6 / PAPER_SPEEDUP_Q6 - 1.0).abs());
        exact.insert(
            "paper_error.q14".into(),
            (s14 / PAPER_SPEEDUP_Q14 - 1.0).abs(),
        );
        exact.insert("core.admit.completed".into(), t.completed as f64);
        exact.insert("core.admit.failed".into(), t.failed as f64);
        exact.insert(
            "core.admit.completed_frac".into(),
            t.completed as f64 / t.attempted as f64,
        );
        exact.insert("storage.pages".into(), self.pages as f64);
        self.latencies = t.latencies;
        Phase {
            ops: t.attempted,
            failed: t.failed,
            exact,
        }
    }

    fn ladder(&mut self, sp: &mut Spans, m: &mut Metrics) {
        let ops: Vec<_> = self
            .queries
            .iter()
            .map(|q| {
                q.resolve(self.smart_pax.catalog())
                    .expect("paper-scan queries resolve")
            })
            .collect();
        for (op, name) in ops.iter().zip(["q6", "q14", "q1"]) {
            let build = (name == "q14").then_some(&self.part_pax);
            let ns = ladder::kernel_ns_per_row(sp, name, op, &self.lineitem_pax, build);
            m.set(&format!("exec.kernel_ns_per_row.{name}"), ns);
        }
        let (mut dev, catalog) = ladder::bare_device(
            self.smart_pax.config(),
            &[
                (queries::LINEITEM, &self.lineitem_pax),
                (queries::PART, &self.part_pax),
            ],
        );
        for (q, name) in self.queries.iter().zip(["q6", "q14", "q1"]) {
            let op = q.resolve(&catalog).expect("paper-scan queries resolve");
            let ms = ladder::session_ms(sp, name, &mut dev, &op);
            m.set(&format!("device.session_ms.{name}"), ms);
        }
        let (enc, dec) = ladder::wire_ns(sp, &ops);
        m.set("exec.wire_encode_ns", enc);
        m.set("exec.wire_decode_ns", dec);
        m.set(
            "sim.latency_stats_ms",
            ladder::latency_stats_ms(sp, &self.latencies),
        );
    }

    fn memory(&self, _rss_start: u64, _m: &mut Metrics) {}
}
