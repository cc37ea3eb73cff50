//! End-to-end and per-layer benchmark of the Smart SSD simulator.
//!
//! Three workloads, each a fixed sequence of operations built from one
//! seed and run in one process:
//!
//! * [`serve_day::ServeDay`] — an open-loop multi-tenant serving day;
//! * [`paper_scan::PaperScan`] — a closed loop of the paper's cold runs;
//! * [`update_mix::UpdateMix`] — table rewrites and checkpoints between
//!   host-routed and pushed-down reads.
//!
//! A run sets its workload up [`Workload::SETUPS`] times (set-up time is
//! their median), then runs the timed phase: `passes(seconds)` repetitions
//! of the workload's fixed pass. Wall time is reported only as whole-phase
//! rates, scaled to a reference machine speed ([`refspeed`]). Simulated
//! figures are exact; every answer is checked against a reference
//! computed in set-up.
//!
//! A traced run (`--trace 1`) repeats the timed phase, set-ups included,
//! with spans recorded around every call the benchmark makes, then
//! replays each layer's public functions on the workload's own inputs
//! (the layer ladder), and reports per-layer metrics instead.

pub mod ladder;
pub mod paper_scan;
pub mod refspeed;
pub mod serve_day;
pub mod spans;
pub mod update_mix;

use smartssd::QueryResult;
use smartssd_sim::{LatencyStats, SimTime};
use smartssd_storage::Tuple;
use spans::Spans;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_elapsed_s", "s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_goodput_qps", "1/s"),
    ("sim_energy_j", "J"),
    ("pushdown_speedup", "x"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
/// Every workload reports every one; a call or count a workload never
/// makes reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.nproc", "count"),
    ("bench.wall_ops_per_s", "1/s"),
    ("bench.machine_speed", "ratio"),
    ("workload.gen_ms", "ms"),
    ("storage.build_ms", "ms"),
    ("storage.pages", "count"),
    ("core.load_ms", "ms"),
    ("core.warmup_ms", "ms"),
    ("core.run_ms.q6.ssd-nsm", "ms"),
    ("core.run_ms.q6.smart-nsm", "ms"),
    ("core.run_ms.q6.smart-pax", "ms"),
    ("core.run_ms.q14.ssd-nsm", "ms"),
    ("core.run_ms.q14.smart-nsm", "ms"),
    ("core.run_ms.q14.smart-pax", "ms"),
    ("core.run_ms.q1.smart-pax", "ms"),
    ("core.run_ms.q1.smart-pax-host", "ms"),
    ("core.run_ms.q6.smart-pax-dirty", "ms"),
    ("core.run_ms.q1.smart-pax-dirty", "ms"),
    ("core.fleet_ms.q6", "ms"),
    ("core.serve_ms", "ms"),
    ("core.update_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("exec.kernel_ns_per_row.q6", "ns"),
    ("exec.kernel_ns_per_row.q14", "ns"),
    ("exec.kernel_ns_per_row.q1", "ns"),
    ("device.session_ms.q6", "ms"),
    ("device.session_ms.q14", "ms"),
    ("device.session_ms.q1", "ms"),
    ("exec.wire_encode_ns", "ns"),
    ("exec.wire_decode_ns", "ns"),
    ("core.arrivals_ms", "ms"),
    ("sim.latency_stats_ms", "ms"),
    ("flash.reads", "count"),
    ("sim.busy_ms.device-cpu", "ms"),
    ("sim.busy_ms.io-device", "ms"),
    ("sim.busy_ms.host-interface", "ms"),
    ("sim.busy_ms.host-cpu-thread", "ms"),
    ("exec.work.values", "count"),
    ("exec.work.pred_atoms", "count"),
    ("exec.work.agg_updates", "count"),
    ("exec.work.out_bytes", "count"),
    ("core.admit.completed", "count"),
    ("core.admit.canceled", "count"),
    ("core.admit.rejected", "count"),
    ("core.admit.deadline_missed", "count"),
    ("core.admit.failed", "count"),
    ("core.admit.completed_frac", "ratio"),
    ("sim.samples", "count"),
    ("core.rss_bytes_per_arrival", "B"),
    ("flash.rss_mb_per_update", "MiB"),
    ("flash.lba_used_frac", "ratio"),
    ("sim.ns_per_wall_s", "ns/s"),
    ("trace.overhead_frac", "ratio"),
    ("paper_error.q6", "ratio"),
    ("paper_error.q14", "ratio"),
];

/// Input sizes: the benchmark's own, or small ones for the determinism
/// tests (which run in debug builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Bench,
    /// Small sizes with the same shape, for tests.
    Test,
}

/// What one timed phase did.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that returned an error, failed in the simulator, or
    /// gave a wrong answer.
    pub failed: u64,
    /// Exact modelled figures: `sim_*`, `pushdown_speedup` and the
    /// per-layer counts. Keys are metric names.
    pub exact: BTreeMap<String, f64>,
}

/// One workload: its set-up, its fixed pass and its layer ladder.
pub trait Workload: Sized {
    /// Exact figures a phase accumulates pass by pass.
    type Tally: Default;
    /// Set-ups per run, spread evenly through the timed phase; `setup_s`
    /// is their median.
    const SETUPS: usize;
    /// Nominal wall seconds of one pass; `--seconds` sets the number of
    /// passes from it, so the operation sequence never depends on how
    /// fast a run happens to go.
    const PASS_S: f64;

    /// Generates, builds and loads the inputs, computes the reference
    /// answers and makes one warm-up pass.
    fn setup(seed: u64, scale: Scale, sp: &mut Spans) -> Result<Self, String>;

    /// Runs pass `i` of the fixed operation sequence into `t`.
    fn pass(&mut self, i: usize, sp: &mut Spans, t: &mut Self::Tally);

    /// Untimed work before every pass but the first after a set-up.
    fn between_passes(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Turns a finished phase's tally into its figures.
    fn finish(&mut self, t: Self::Tally) -> Phase;

    /// Replays each layer's public calls on the workload's inputs and
    /// records their wall times into `m`.
    fn ladder(&mut self, sp: &mut Spans, m: &mut Metrics);

    /// Memory metrics of the last phase, given the resident set size
    /// (bytes) the process had before its first set-up.
    fn memory(&self, rss_start: u64, m: &mut Metrics);
}

/// A finished timed phase.
struct Timed<W> {
    state: W,
    phase: Phase,
    /// Wall seconds of the passes alone.
    wall: f64,
    /// The same passes' seconds at the reference machine speed.
    ref_s: f64,
    /// Each set-up's seconds at the reference machine speed.
    setup_s: Vec<f64>,
}

/// Pass wall time after which the machine speed is measured again.
const REMEASURE_S: f64 = 0.5;

/// Runs `passes` passes with `setups` set-ups spread evenly among them
/// (the first before pass 0), so that set-up time and pass rate sample
/// the same stretch of machine time. The machine speed is measured before
/// each set-up and every [`REMEASURE_S`] of passes. Set-ups record into
/// `setup_sp`, passes into `pass_sp`.
fn timed_phase<W: Workload>(
    seed: u64,
    scale: Scale,
    passes: usize,
    setups: usize,
    setup_sp: &mut Spans,
    pass_sp: &mut Spans,
) -> Result<Timed<W>, String> {
    let every = passes.div_ceil(setups.max(1)).max(1);
    let mut state: Option<W> = None;
    let mut setup_s = Vec::with_capacity(setups);
    let mut tally = W::Tally::default();
    let (mut wall, mut ref_s) = (0.0, 0.0);
    let (mut speed, mut since) = (1.0, f64::INFINITY);
    for i in 0..passes {
        match state.as_mut() {
            Some(w) if i % every != 0 => w.between_passes()?,
            _ => {
                // Drop the previous set-up first, so only one is resident.
                drop(state.take());
                let speed = refspeed::speed();
                let t = Instant::now();
                state = Some(W::setup(seed, scale, setup_sp)?);
                setup_s.push(t.elapsed().as_secs_f64() * speed);
            }
        }
        if since >= REMEASURE_S {
            speed = refspeed::speed();
            since = 0.0;
        }
        let w = state.as_mut().expect("set up above");
        pass_sp.next_op();
        let t = Instant::now();
        w.pass(i, pass_sp, &mut tally);
        let d = t.elapsed().as_secs_f64();
        wall += d;
        ref_s += d * speed;
        since += d;
    }
    let mut state = state.ok_or("a phase makes at least one pass")?;
    let phase = state.finish(tally);
    Ok(Timed {
        state,
        phase,
        wall,
        ref_s,
        setup_s,
    })
}

/// Number of passes a run of `seconds` makes.
pub fn passes(seconds: f64, pass_s: f64) -> usize {
    ((seconds / pass_s).round() as usize).max(1)
}

/// Named metric values with units.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets a metric; its unit comes from [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists: every reported name must be
    /// declared in `BENCHMARK.json`.
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(name.to_string(), (value, unit));
    }
}

/// The result line of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every operation succeeded with the reference answer.
    pub correct: bool,
    /// Operations attempted in the measured phase(s).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// The traced run's spans (`None` when untraced).
    pub spans: Option<Spans>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Sets `W` up once and runs `passes` untraced passes: the phase whose
/// exact figures the determinism tests compare.
pub fn exact_phase<W: Workload>(seed: u64, scale: Scale, passes: usize) -> Result<Phase, String> {
    let mut off = Spans::new(false);
    let timed = timed_phase::<W>(seed, scale, passes, 1, &mut off, &mut Spans::new(false))?;
    Ok(timed.phase)
}

/// Runs one workload and assembles its result.
pub fn run<W: Workload>(
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Outcome, String> {
    let rss_start = rss_bytes("VmRSS");
    let mut sp = Spans::new(trace);
    let passes = passes(seconds, W::PASS_S);

    // The untraced phase: end-to-end figures come from it alone.
    let untraced = timed_phase::<W>(
        seed,
        scale,
        passes,
        W::SETUPS,
        &mut sp,
        &mut Spans::new(false),
    )?;
    let phase = &untraced.phase;
    let ops_per_s = phase.ops as f64 / untraced.ref_s;
    let mut m = Metrics::default();
    if !trace {
        m.set("setup_s", median(&untraced.setup_s));
        m.set("ops_per_s", ops_per_s);
        for (k, v) in &phase.exact {
            if END_TO_END.iter().any(|(n, _)| n == k) {
                m.set(k, *v);
            }
        }
        m.set("peak_rss_mb", rss_bytes("VmHWM") as f64 / (1024.0 * 1024.0));
        return Ok(Outcome {
            correct: phase.failed == 0,
            attempted: phase.ops,
            failed: phase.failed,
            metrics: m,
            spans: None,
        });
    }

    for (name, _) in PER_LAYER {
        m.set(name, 0.0);
    }
    untraced.state.memory(rss_start, &mut m);
    let sim_elapsed_s = phase.exact.get("sim_elapsed_s").copied().unwrap_or(0.0);
    m.set("sim.ns_per_wall_s", sim_elapsed_s * 1e9 / untraced.ref_s);
    m.set("bench.wall_ops_per_s", phase.ops as f64 / untraced.wall);
    m.set("bench.machine_speed", untraced.ref_s / untraced.wall);
    for (k, v) in &phase.exact {
        if PER_LAYER.iter().any(|(n, _)| n == k) {
            m.set(k, *v);
        }
    }
    let untraced_phase = untraced.phase;
    drop(untraced.state);

    // The traced phase repeats the untraced one exactly, set-ups included
    // (so `trace.overhead_frac` compares like with like), with a span
    // around every call of its passes.
    let first_traced = sp.spans().len();
    let mut off = Spans::new(false);
    let traced = timed_phase::<W>(seed, scale, passes, W::SETUPS, &mut off, &mut sp)?;
    let mut state = traced.state;
    state.ladder(&mut sp, &mut m);
    m.set(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    m.set(
        "trace.overhead_frac",
        1.0 - (traced.phase.ops as f64 / traced.ref_s) / ops_per_s,
    );
    // Per-call wall medians, keyed `<name>_ms[.<label>]`: set-up steps
    // over every set-up, operations over the traced phase alone.
    let steps = ["workload.gen", "storage.build", "core.load", "core.warmup"];
    let calls = [
        "core.run",
        "core.fleet",
        "core.serve",
        "core.update",
        "core.checkpoint",
    ];
    for (names, from) in [(&steps[..], 0), (&calls[..], first_traced)] {
        for name in names {
            for (label, durs) in sp.durations(name, from) {
                let key = if label.is_empty() {
                    format!("{name}_ms")
                } else {
                    format!("{name}_ms.{label}")
                };
                let ms: Vec<f64> = durs.iter().map(|&d| d as f64 / 1e6).collect();
                m.set(&key, median(&ms));
            }
        }
    }
    let failed = untraced_phase.failed + traced.phase.failed;
    Ok(Outcome {
        // Tracing must not change a single simulated figure.
        correct: failed == 0 && traced.phase.exact == untraced_phase.exact,
        attempted: untraced_phase.ops + traced.phase.ops,
        failed,
        metrics: m,
        spans: Some(sp),
    })
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`), in bytes; 0
/// where the file is unavailable.
pub fn rss_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// A query answer, compared bit for bit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    aggs: Vec<i128>,
    rows: Vec<Tuple>,
    scalar: Option<u64>,
}

impl Answer {
    /// The answer carried by a result.
    pub fn of(r: &QueryResult) -> Self {
        Self {
            aggs: r.agg_values.clone(),
            rows: r.rows.clone(),
            scalar: r.scalar.map(f64::to_bits),
        }
    }

    /// Whether `r` carries this answer, without copying it.
    pub fn matches(&self, r: &QueryResult) -> bool {
        self.aggs == r.agg_values
            && self.rows == r.rows
            && self.scalar == r.scalar.map(f64::to_bits)
    }
}

/// Adds the simulated latency figures of a sample: nearest-rank p50 and
/// p99 and the sample count.
pub fn latency_figures(exact: &mut BTreeMap<String, f64>, sample: &[SimTime]) {
    let st = LatencyStats::from_sample(sample);
    exact.insert("sim_p50_ms".into(), st.p50.as_millis_f64());
    exact.insert("sim_p99_ms".into(), st.p99.as_millis_f64());
    exact.insert("sim.samples".into(), st.count as f64);
}

/// Adds a run's exact work receipt to the `exec.work.*` counts.
pub fn add_work(exact: &mut BTreeMap<String, f64>, w: &smartssd_exec::WorkCounts) {
    for (k, v) in [
        ("exec.work.values", w.values),
        ("exec.work.pred_atoms", w.pred_atoms),
        ("exec.work.agg_updates", w.agg_updates),
        ("exec.work.out_bytes", w.out_bytes),
    ] {
        *exact.entry(k.into()).or_default() += v as f64;
    }
}

/// Adds one count to an exact figure.
pub fn add(exact: &mut BTreeMap<String, f64>, key: &str, v: f64) {
    *exact.entry(key.into()).or_default() += v;
}
