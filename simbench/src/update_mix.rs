//! `update-mix`: writes beside reads on one Smart SSD holding a LINEITEM
//! SF 0.01 slice (PAX pages).
//!
//! Each round rewrites the table with `update_table_rows`, alternating
//! between two row versions made in set-up; marks it dirty and runs Q6
//! and Q1, which the dirty rule forces onto the host route; checkpoints
//! it; and runs Q6 and Q1 pushed down. It drives the storage, flash and
//! host layers on the write and invalidation paths: page encode,
//! programming a fresh extent, trim and cache clearing.
//!
//! `update_table_rows` never reuses LBA space and keeps the stale
//! extent's bytes, so resident memory grows by about one table image per
//! rewrite and the LBA space runs out after a few hundred rewrites. The
//! workload reports both (`peak_rss_mb`, `flash.rss_mb_per_update`,
//! `flash.lba_used_frac`) rather than sizing around them.

use crate::ladder;
use crate::spans::Spans;
use crate::{add, add_work, latency_figures, rss_bytes, Answer, Metrics, Phase, Scale, Workload};
use smartssd::{
    DeviceKind, Query, RunError, RunOptions, RunReport, SimTime, System, SystemBuilder,
};
use smartssd_query::Route;
use smartssd_storage::{Layout, TableBuilder, TableImage, Tuple};
use smartssd_workload::{q1, q6, queries, tpch};
use std::collections::BTreeMap;

/// Seed offset of the second row version.
const SECOND_VERSION: u64 = 0x5EED_0FB0;

/// TPC-H scale factor and rounds per pass.
fn shape(scale: Scale) -> (f64, usize) {
    match scale {
        Scale::Bench => (0.01, 16),
        Scale::Test => (0.001, 2),
    }
}

/// The workload's state between set-up and the timed phase.
pub struct UpdateMix {
    sys: System,
    rounds: usize,
    /// Q6, Q1.
    queries: [Query; 2],
    /// The two row versions the rounds alternate between.
    versions: [Vec<Tuple>; 2],
    /// PAX images of the two versions (the ladder replays over them).
    images: [TableImage; 2],
    /// Regular-SSD answers: `refs[version][query]`.
    refs: [[Answer; 2]; 2],
    /// The version last written.
    current: usize,
    pages: u64,
    latencies: Vec<SimTime>,
    /// Largest resident-set growth per rewrite over the last phase's
    /// passes.
    rss_mb_per_update: f64,
}

/// Exact figures a phase accumulates.
#[derive(Default)]
pub struct Tally {
    exact: BTreeMap<String, f64>,
    latencies: Vec<SimTime>,
    ops: u64,
    failed: u64,
    runs: u64,
    completed: u64,
    elapsed: SimTime,
    dirty: SimTime,
    clean: SimTime,
    rss_mb_per_update: f64,
    lba_used_frac: f64,
}

impl Tally {
    fn record(&mut self, r: &RunReport) {
        self.completed += 1;
        self.elapsed += r.result.elapsed;
        self.latencies.push(r.result.elapsed);
        add_work(&mut self.exact, &r.result.work);
        // Every run is cold, so each page it visits is one flash read.
        add(&mut self.exact, "flash.reads", r.result.work.pages as f64);
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

impl UpdateMix {
    /// Runs Q6 and Q1 cold; on a dirty table they must take the host
    /// route, on a clean one they run pushed down.
    fn reads(&mut self, dirty: bool, sp: &mut Spans, t: &mut Tally) {
        for qi in 0..2 {
            let label = format!(
                "{}.smart-pax{}",
                ["q6", "q1"][qi],
                if dirty { "-dirty" } else { "" }
            );
            self.sys.clear_cache();
            sp.next_op();
            let (sys, query) = (&mut self.sys, &self.queries[qi]);
            let res = sp.time(
                "core.run",
                || label,
                |_| sys.run(query, RunOptions::default()),
            );
            t.ops += 1;
            t.runs += 1;
            match res {
                Ok(r)
                    if self.refs[self.current][qi].matches(&r.result)
                        && (!dirty || r.route == Route::Host) =>
                {
                    if dirty {
                        t.dirty += r.result.elapsed;
                    } else {
                        t.clean += r.result.elapsed;
                    }
                    t.record(&r);
                }
                _ => t.failed += 1,
            }
        }
    }

    fn round(&mut self, sp: &mut Spans, t: &mut Tally) {
        let next = 1 - self.current;
        sp.next_op();
        let (sys, rows) = (&mut self.sys, &self.versions[next]);
        let res = sp.time("core.update", String::new, |_| {
            sys.update_table_rows(queries::LINEITEM, rows.iter().cloned())
        });
        t.ops += 1;
        match res {
            Ok(()) => self.current = next,
            Err(_) => t.failed += 1,
        }
        self.sys.mark_dirty(queries::LINEITEM);
        self.reads(true, sp, t);
        sp.next_op();
        let sys = &mut self.sys;
        let res = sp.time("core.checkpoint", String::new, |_| {
            sys.checkpoint(queries::LINEITEM)
        });
        t.ops += 1;
        if res.is_err() {
            t.failed += 1;
        }
        self.reads(false, sp, t);
    }
}

/// A Smart SSD holding the first row version.
fn smart_system(first: &TableImage) -> Result<System, RunError> {
    let mut sys = SystemBuilder::new(DeviceKind::SmartSsd, Layout::Pax).build();
    sys.load_table(queries::LINEITEM, first)?;
    sys.finish_load();
    Ok(sys)
}

fn image(rows: &[Tuple], layout: Layout) -> TableImage {
    let mut b = TableBuilder::new(queries::LINEITEM, tpch::lineitem_schema(), layout);
    b.extend(rows.iter().cloned());
    b.finish()
}

impl Workload for UpdateMix {
    type Tally = Tally;
    const SETUPS: usize = 5;
    const PASS_S: f64 = 1.5;

    fn setup(seed: u64, scale: Scale, sp: &mut Spans) -> Result<Self, String> {
        let (sf, rounds) = shape(scale);
        let versions = sp.time("workload.gen", String::new, |_| {
            [
                tpch::lineitem_rows(sf, seed).collect::<Vec<_>>(),
                tpch::lineitem_rows(sf, seed ^ SECOND_VERSION).collect::<Vec<_>>(),
            ]
        });
        let (images, first_nsm) = sp.time("storage.build", String::new, |_| {
            (
                [
                    image(&versions[0], Layout::Pax),
                    image(&versions[1], Layout::Pax),
                ],
                image(&versions[0], Layout::Nsm),
            )
        });
        let pages =
            images.iter().map(|i| i.num_pages() as u64).sum::<u64>() + first_nsm.num_pages() as u64;
        let (sys, mut ssd) = sp
            .time("core.load", String::new, |_| {
                let sys = smart_system(&images[0])?;
                let mut ssd = SystemBuilder::new(DeviceKind::Ssd, Layout::Nsm).build();
                ssd.load_table(queries::LINEITEM, &first_nsm)?;
                ssd.finish_load();
                Ok((sys, ssd))
            })
            .map_err(|e: RunError| format!("update-mix load: {e}"))?;
        let queries = [q6(), q1()];
        let mut mix = Self {
            sys,
            rounds,
            queries,
            versions,
            images,
            refs: Default::default(),
            current: 0,
            pages,
            latencies: Vec::new(),
            rss_mb_per_update: 0.0,
        };
        sp.time("core.warmup", String::new, |sp| -> Result<(), String> {
            for v in 0..2 {
                if v == 1 {
                    ssd.update_table_rows(queries::LINEITEM, mix.versions[1].iter().cloned())
                        .map_err(|e| format!("update-mix reference update: {e}"))?;
                }
                for qi in 0..2 {
                    ssd.clear_cache();
                    let r = ssd
                        .run(&mix.queries[qi], RunOptions::default())
                        .map_err(|e| format!("update-mix reference: {e}"))?;
                    mix.refs[v][qi] = Answer::of(&r.result);
                }
            }
            mix.round(sp, &mut Tally::default());
            Ok(())
        })?;
        mix.between_passes()?;
        Ok(mix)
    }

    fn pass(&mut self, _i: usize, sp: &mut Spans, t: &mut Tally) {
        let before = rss_bytes("VmRSS");
        for _ in 0..self.rounds {
            self.round(sp, t);
        }
        // Freed memory is reused, so only passes that need more than the
        // process has held before show growth: keep the largest.
        let grown = rss_bytes("VmRSS").saturating_sub(before) as f64 / (1024.0 * 1024.0);
        t.rss_mb_per_update = t.rss_mb_per_update.max(grown / self.rounds as f64);
        let used = self
            .sys
            .catalog()
            .get(queries::LINEITEM)
            .map_or(0, |t| t.first_lba + t.num_pages);
        t.lba_used_frac = used as f64 / self.sys.config().flash.logical_pages() as f64;
    }

    /// Every pass starts from a freshly loaded device, so each makes the
    /// same rewrites from the same LBA layout.
    fn between_passes(&mut self) -> Result<(), String> {
        self.sys = smart_system(&self.images[0]).map_err(|e| format!("update-mix reload: {e}"))?;
        self.current = 0;
        Ok(())
    }

    fn finish(&mut self, mut t: Tally) -> Phase {
        let mut exact = std::mem::take(&mut t.exact);
        let secs = t.elapsed.as_secs_f64();
        exact.insert("sim_elapsed_s".into(), secs);
        exact.insert("sim_goodput_qps".into(), t.completed as f64 / secs);
        latency_figures(&mut exact, &t.latencies);
        exact.insert(
            "pushdown_speedup".into(),
            t.dirty.as_secs_f64() / t.clean.as_secs_f64(),
        );
        exact.insert("core.admit.completed".into(), t.completed as f64);
        exact.insert("core.admit.failed".into(), t.failed as f64);
        exact.insert("flash.lba_used_frac".into(), t.lba_used_frac);
        self.rss_mb_per_update = t.rss_mb_per_update;
        exact.insert(
            "core.admit.completed_frac".into(),
            t.completed as f64 / t.runs as f64,
        );
        exact.insert("storage.pages".into(), self.pages as f64);
        self.latencies = t.latencies;
        Phase {
            ops: t.ops,
            failed: t.failed,
            exact,
        }
    }

    fn ladder(&mut self, sp: &mut Spans, m: &mut Metrics) {
        let img = &self.images[self.current];
        let (mut dev, catalog) =
            ladder::bare_device(self.sys.config(), &[(queries::LINEITEM, img)]);
        let mut ops = Vec::new();
        for (q, name) in self.queries.iter().zip(["q6", "q1"]) {
            let op = q.resolve(&catalog).expect("update-mix queries resolve");
            m.set(
                &format!("exec.kernel_ns_per_row.{name}"),
                ladder::kernel_ns_per_row(sp, name, &op, img, None),
            );
            m.set(
                &format!("device.session_ms.{name}"),
                ladder::session_ms(sp, name, &mut dev, &op),
            );
            ops.push(op);
        }
        let (enc, dec) = ladder::wire_ns(sp, &ops);
        m.set("exec.wire_encode_ns", enc);
        m.set("exec.wire_decode_ns", dec);
        m.set(
            "sim.latency_stats_ms",
            ladder::latency_stats_ms(sp, &self.latencies),
        );
    }

    fn memory(&self, _rss_start: u64, m: &mut Metrics) {
        m.set("flash.rss_mb_per_update", self.rss_mb_per_update);
    }
}
