//! Command line of the simulator benchmark:
//!
//! ```text
//! simbench --workload <serve-day|paper-scan|update-mix> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's result as one JSON object on the last line of
//! standard output. A traced run also writes its spans under `out/` in
//! the benchmark's directory.

use smartssd_simbench::paper_scan::PaperScan;
use smartssd_simbench::serve_day::ServeDay;
use smartssd_simbench::update_mix::UpdateMix;
use smartssd_simbench::{run, Outcome, Scale};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn write_spans(args: &Args, out: &Outcome) -> Result<(), String> {
    let Some(sp) = &out.spans else { return Ok(()) };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, sp.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let result = parse().and_then(|args| {
        let out = match args.workload.as_str() {
            "serve-day" => run::<ServeDay>(args.seed, args.seconds, args.trace, Scale::Bench),
            "paper-scan" => run::<PaperScan>(args.seed, args.seconds, args.trace, Scale::Bench),
            "update-mix" => run::<UpdateMix>(args.seed, args.seconds, args.trace, Scale::Bench),
            w => Err(format!("unknown workload {w:?}")),
        }?;
        if let Some((k, _)) = out.metrics.0.iter().find(|(_, (v, _))| !v.is_finite()) {
            return Err(format!("metric {k} is not a finite number"));
        }
        write_spans(&args, &out)?;
        Ok(out)
    });
    match result {
        Ok(out) => {
            println!("{}", out.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
