//! `serve-day`: an open-loop multi-tenant serving day in simulated time,
//! streamed through `System::run_serving` over the default linked
//! interface (OPEN/GET/CLOSE and the wire codec on every arrival).
//!
//! 256 tenants (weights 1–8; uniform and exponential arrivals
//! alternating; patience of 8 service times) offer ρ ≈ 2 against one
//! device session slot, on a 64-row LINEITEM slice. The kernels touch
//! about one page per query, so per-arrival overhead does almost all the
//! work: the arrival stream, the admission heap and its cancellations,
//! the session driver, the wire codec and report accounting. Report
//! memory grows with each arrival.

use crate::ladder;
use crate::spans::Spans;
use crate::{add, add_work, latency_figures, rss_bytes, Answer, Metrics, Phase, Scale, Workload};
use smartssd::{
    ArrivalModel, ArrivalStream, DeviceKind, RunOptions, SimTime, System, SystemBuilder,
    TenantLoad, TenantSpec, WorkloadOptions,
};
use smartssd_query::{Query, Route};
use smartssd_storage::{Layout, TableBuilder, TableImage};
use smartssd_workload::{q6, queries, tpch};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Rows of the LINEITEM slice the day queries.
pub const ROWS: u64 = 64;

/// Tenants and arrivals per tenant in one day.
fn day_shape(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Bench => (256, 256),
        Scale::Test => (16, 32),
    }
}

/// The tenant registry: `tenants` loads of `per_tenant` Q6 arrivals
/// offered at an aggregate ρ ≈ 2 of one slot's capacity, so roughly half
/// the arrivals abandon (patience: 8 service times) before service.
fn day_loads(
    query: &Query,
    tenants: usize,
    per_tenant: usize,
    service: SimTime,
) -> Vec<TenantLoad> {
    let gap = SimTime::from_nanos(service.as_nanos() * tenants as u64 / 2);
    (0..tenants)
        .map(|i| {
            TenantLoad::new(
                TenantSpec::new(format!("t{i}")).weight(1 + (i % 8) as u64),
                query.clone(),
                per_tenant,
                gap,
            )
            .model(if i % 2 == 0 {
                ArrivalModel::Uniform
            } else {
                ArrivalModel::Exponential
            })
            .cancel_after(SimTime::from_nanos(service.as_nanos() * 8))
        })
        .collect()
}

/// The workload's state between set-up and the timed phase.
pub struct ServeDay {
    seed: u64,
    sys: System,
    query: Query,
    loads: Vec<TenantLoad>,
    /// Q6's answer on the slice, from a regular SSD.
    reference: Answer,
    image: TableImage,
    pages: u64,
    /// Exact figures of the set-up's two cold calibration runs (regular
    /// SSD host route, Smart SSD pushdown), which price the service time.
    calibration_energy_j: f64,
    calibration_speedup: f64,
    latencies: Vec<SimTime>,
}

/// Exact figures a phase accumulates.
#[derive(Default)]
pub struct Tally {
    exact: BTreeMap<String, f64>,
    latencies: Vec<SimTime>,
    makespan: SimTime,
    arrivals: u64,
    failed: u64,
}

/// Serves one day drawn from `seed` and books its outcomes into `t`;
/// every completion must carry `reference`.
fn serve(
    sys: &mut System,
    reference: &Answer,
    loads: &[TenantLoad],
    seed: u64,
    sp: &mut Spans,
    t: &mut Tally,
) {
    let total: u64 = loads.iter().map(|l| l.count() as u64).sum();
    let res = sp.time("core.serve", String::new, |_| {
        sys.run_serving(loads, seed, WorkloadOptions::new())
    });
    t.arrivals += total;
    let rep = match res {
        Ok(rep) => rep,
        Err(_) => {
            t.failed += total;
            return;
        }
    };
    let wrong = rep
        .completions
        .iter()
        .filter(|c| !reference.matches(&c.result))
        .count() as u64;
    t.failed += rep.failed + wrong;
    t.makespan += rep.makespan;
    for c in &rep.completions {
        t.latencies.push(c.latency);
        add_work(&mut t.exact, &c.result.work);
    }
    let e = &mut t.exact;
    add(e, "flash.reads", rep.flash_reads as f64);
    add(e, "core.admit.completed", rep.completions.len() as f64);
    add(e, "core.admit.canceled", rep.canceled as f64);
    add(e, "core.admit.rejected", rep.rejected as f64);
    add(e, "core.admit.deadline_missed", rep.deadline_missed as f64);
    add(e, "core.admit.failed", rep.failed as f64);
}

fn slice_system(kind: DeviceKind, img: &TableImage) -> Result<System, String> {
    let mut sys = SystemBuilder::new(kind, img.layout())
        .tweak(|c| c.smart.max_sessions = 1)
        .build();
    sys.load_table(queries::LINEITEM, img)
        .map_err(|e| format!("serve-day load: {e}"))?;
    sys.finish_load();
    Ok(sys)
}

/// Arrival-stream seed of pass `i`.
fn day_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload for ServeDay {
    type Tally = Tally;
    const SETUPS: usize = 7;
    const PASS_S: f64 = 0.55;

    fn setup(seed: u64, scale: Scale, sp: &mut Spans) -> Result<Self, String> {
        let schema = tpch::lineitem_schema();
        let rows: Vec<_> = sp.time("workload.gen", String::new, |_| {
            tpch::lineitem_rows(ROWS as f64 / tpch::LINEITEM_ROWS_SF1 as f64, seed).collect()
        });
        let (pax, nsm) = sp.time("storage.build", String::new, |_| {
            let img = |layout| {
                let mut b = TableBuilder::new(queries::LINEITEM, Arc::clone(&schema), layout);
                b.extend(rows.iter().cloned());
                b.finish()
            };
            (img(Layout::Pax), img(Layout::Nsm))
        });
        let pages = (pax.num_pages() + nsm.num_pages()) as u64;
        let (sys, mut ssd) = sp.time("core.load", String::new, |_| {
            Ok::<_, String>((
                slice_system(DeviceKind::SmartSsd, &pax)?,
                slice_system(DeviceKind::Ssd, &nsm)?,
            ))
        })?;
        let query = q6();
        let mut day = Self {
            seed,
            sys,
            query,
            loads: Vec::new(),
            reference: Answer::default(),
            image: pax,
            pages,
            calibration_energy_j: 0.0,
            calibration_speedup: 0.0,
            latencies: Vec::new(),
        };
        sp.time("core.warmup", String::new, |sp| -> Result<(), String> {
            let host = ssd
                .run(&day.query, RunOptions::default())
                .map_err(|e| format!("serve-day reference: {e}"))?;
            let probe = day
                .sys
                .run(&day.query, RunOptions::routed(Route::Device))
                .map_err(|e| format!("serve-day calibration: {e}"))?;
            day.reference = Answer::of(&host.result);
            day.calibration_energy_j = host.energy.system_j + probe.energy.system_j;
            day.calibration_speedup =
                host.result.elapsed.as_secs_f64() / probe.result.elapsed.as_secs_f64();
            let service = probe.result.elapsed;
            let (tenants, per_tenant) = day_shape(scale);
            day.loads = day_loads(&day.query, tenants, per_tenant, service);
            let warm = &mut Tally::default();
            serve(&mut day.sys, &day.reference, &day.loads, seed, sp, warm);
            Ok(())
        })?;
        Ok(day)
    }

    /// Pass `i` serves the day's schedule drawn from its own seed, so a
    /// phase's figures average over many days.
    fn pass(&mut self, i: usize, sp: &mut Spans, t: &mut Tally) {
        let seed = day_seed(self.seed, i);
        serve(&mut self.sys, &self.reference, &self.loads, seed, sp, t);
    }

    fn finish(&mut self, mut t: Tally) -> Phase {
        let mut exact = std::mem::take(&mut t.exact);
        let secs = t.makespan.as_secs_f64();
        let completed = exact.get("core.admit.completed").copied().unwrap_or(0.0);
        exact.insert("sim_elapsed_s".into(), secs);
        exact.insert("sim_goodput_qps".into(), completed / secs);
        exact.insert(
            "core.admit.completed_frac".into(),
            completed / t.arrivals as f64,
        );
        latency_figures(&mut exact, &t.latencies);
        exact.insert("sim_energy_j".into(), self.calibration_energy_j);
        exact.insert("pushdown_speedup".into(), self.calibration_speedup);
        exact.insert("storage.pages".into(), self.pages as f64);
        self.latencies = t.latencies;
        Phase {
            ops: t.arrivals,
            failed: t.failed,
            exact,
        }
    }

    fn ladder(&mut self, sp: &mut Spans, m: &mut Metrics) {
        let op = self
            .query
            .resolve(self.sys.catalog())
            .expect("Q6 resolves on the slice");
        m.set(
            "exec.kernel_ns_per_row.q6",
            ladder::kernel_ns_per_row(sp, "q6", &op, &self.image, None),
        );
        let (mut dev, catalog) =
            ladder::bare_device(self.sys.config(), &[(queries::LINEITEM, &self.image)]);
        let bare = self
            .query
            .resolve(&catalog)
            .expect("Q6 resolves on the slice");
        m.set(
            "device.session_ms.q6",
            ladder::session_ms(sp, "q6", &mut dev, &bare),
        );
        let (enc, dec) = ladder::wire_ns(sp, &[op]);
        m.set("exec.wire_encode_ns", enc);
        m.set("exec.wire_decode_ns", dec);
        let mut ms = Vec::with_capacity(ladder::REPS);
        for _ in 0..ladder::REPS {
            let t = Instant::now();
            sp.time("core.arrivals", String::new, |_| {
                let mut stream = ArrivalStream::new(&self.loads, self.seed);
                while let Some(a) = stream.next_arrival() {
                    black_box(a);
                }
            });
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.set("core.arrivals_ms", crate::median(&ms));
        m.set(
            "sim.latency_stats_ms",
            ladder::latency_stats_ms(sp, &self.latencies),
        );
    }

    /// The slice and its systems take a few pages, so the process's
    /// peak growth is almost all one day's report.
    fn memory(&self, rss_start: u64, m: &mut Metrics) {
        let arrivals: usize = self.loads.iter().map(TenantLoad::count).sum();
        let grown = rss_bytes("VmHWM").saturating_sub(rss_start);
        m.set("core.rss_bytes_per_arrival", grown as f64 / arrivals as f64);
    }
}
