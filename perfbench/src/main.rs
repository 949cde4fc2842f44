//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload onboard|fused_adaptive|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload; with
//! `--trace 1` it runs the same workload with the outside-in stage ledger
//! and prints the per-layer metrics instead. Either way the outputs are
//! checked (see each workload's module), a host-stamped JSON record is
//! printed, and the last line is the JSON result. A failed check exits
//! non-zero.

mod filters;
mod fleet;
mod host;
mod ledger;
mod report;
mod stats;

use report::Report;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["onboard", "fused_adaptive", "fleet"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.workload, args.seed, args.trace);
    match args.workload {
        "onboard" => filters::onboard(args.seed, args.seconds, args.trace, &mut report),
        "fused_adaptive" => {
            filters::fused_adaptive(args.seed, args.seconds, args.trace, &mut report)
        }
        _ => fleet::run(args.seed, args.seconds, args.trace, &mut report),
    }
    if !args.trace {
        let ok = report.attempted.saturating_sub(report.failed);
        report.metric(
            "ok_pct",
            100.0 * ok as f64 / report.attempted.max(1) as f64,
            "%",
        );
        report.required("peak_rss_mib", host::peak_rss_mib(), "MiB");
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
