//! The logical disk's benchmark: three workloads that each spend most
//! of their timed wall time in a modeled device, so wall-clock numbers
//! repeat. See README.md for why each workload and constant was chosen.
//!
//! Usage:
//! `ld-perfbench --workload <net_sync_put|fs_read_mostly|crash_restart>
//!  --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). The line before it holds the
//! run's fingerprint, sample counts and checks.

mod common;
mod crash_restart;
mod device;
mod fs_read_mostly;
mod net_sync_put;
mod stats;
mod timed_ld;

use common::Params;
use std::process::ExitCode;

const USAGE: &str = "usage: ld-perfbench --workload <net_sync_put|fs_read_mostly|crash_restart> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Params), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Params {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, params) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ld-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "net_sync_put" => net_sync_put::run(&params),
        "fs_read_mostly" => fs_read_mostly::run(&params),
        "crash_restart" => crash_restart::run(&params),
        other => {
            eprintln!("ld-perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{{\"detail\":{}}}", report.detail.finish());
    if !report.errors.is_empty() {
        for e in &report.errors {
            eprintln!("ld-perfbench: {workload}: {e}");
        }
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}
