//! Runs one workload of the scan-to-serve benchmark and prints its
//! result as the last line of standard output.
//!
//! Usage: `perfbench --workload <scan_serve|publish_stream>
//! --seed <n> --seconds <s> --trace <0|1>`
//!
//! Exits 1 when a correctness gate fails and 2 on a usage error.

use perfbench::{RunSpec, Workload};
use std::path::PathBuf;

const USAGE: &str = "usage: perfbench --workload <scan_serve|publish_stream> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, RunSpec), String> {
    let mut workload = None;
    let mut spec = RunSpec {
        seed: 2015,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                spec.seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                spec.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a positive number"))?
            }
            "--trace" => {
                spec.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, spec))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, spec) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Scratch state lives inside the checkout the benchmark runs from.
    let work = PathBuf::from("perfbench").join(".run").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    ));
    let mut report = perfbench::run(workload, spec, &work);
    let _ = std::fs::remove_dir_all(&work);
    report.check_finite();

    println!(
        "# {} seed={} seconds={} trace={}",
        workload.name(),
        spec.seed,
        spec.seconds,
        u8::from(spec.trace)
    );
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.ledger_line());
    if let Some(d) = report.digest {
        println!("# digest crc32={d:08x}");
    }
    for e in &report.errors {
        println!("# GATE FAILED: {e}");
    }
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
