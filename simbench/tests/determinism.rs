//! The simulated figures are the benchmark's exact half: a seed must
//! replay them bit for bit, and the serving schedule must follow the seed.

use smartssd_simbench::paper_scan::PaperScan;
use smartssd_simbench::serve_day::ServeDay;
use smartssd_simbench::update_mix::UpdateMix;
use smartssd_simbench::{exact_phase, Phase, Scale, Workload, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

fn bits(p: &Phase) -> BTreeMap<String, u64> {
    p.exact
        .iter()
        .map(|(k, v)| (k.clone(), v.to_bits()))
        .collect()
}

/// Two runs of one seed agree on every exact figure, fail nothing, and
/// report every simulated end-to-end metric.
fn replays<W: Workload>(seed: u64) -> Phase {
    let a = exact_phase::<W>(seed, Scale::Test, 2).expect("set-up succeeds");
    let b = exact_phase::<W>(seed, Scale::Test, 2).expect("set-up succeeds");
    assert_eq!(a.failed, 0, "no operation fails");
    assert_eq!(a.ops, b.ops);
    assert_eq!(bits(&a), bits(&b), "same seed, same figures");
    for name in [
        "sim_elapsed_s",
        "sim_p50_ms",
        "sim_p99_ms",
        "sim_goodput_qps",
        "sim_energy_j",
        "pushdown_speedup",
        "flash.reads",
        "sim.samples",
    ] {
        let v = a.exact.get(name).copied().unwrap_or(0.0);
        assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
    }
    a
}

#[test]
fn paper_scan_replays_exactly() {
    let p = replays::<PaperScan>(7);
    assert!(p.exact.contains_key("paper_error.q6"));
    assert!(p.exact.contains_key("sim.busy_ms.device-cpu"));
}

#[test]
fn update_mix_replays_exactly() {
    let p = replays::<UpdateMix>(7);
    assert!(p.exact["pushdown_speedup"] > 0.0);
}

#[test]
fn serve_day_replays_exactly_and_follows_the_seed() {
    let a = replays::<ServeDay>(7);
    let b = exact_phase::<ServeDay>(8, Scale::Test, 2).expect("set-up succeeds");
    assert_ne!(
        bits(&a),
        bits(&b),
        "another seed draws another serving schedule"
    );
    assert!(a.exact["core.admit.canceled"] > 0.0, "the day sheds load");
}

/// Every metric the benchmark reports is declared, with its unit, in the
/// repository's `BENCHMARK.json`.
#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let decl = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&decl), "BENCHMARK.json lacks {decl}");
    }
}
