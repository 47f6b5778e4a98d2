//! Benchmark entry point.
//!
//! ```sh
//! cargo run --quiet --release --offline --manifest-path repobench/Cargo.toml -- \
//!     --workload fit-dtcr --seed 5 --seconds 15 --trace 0
//! ```
//!
//! Prints every metric by name with its unit and sample basis, then, as
//! the last line, one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. Exits 1 when any operation failed or any
//! correctness check did not hold, 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use ips_repobench::run::{run, Options};
use ips_repobench::workload::{plan, DEFAULT_SEED, THREADS, WORKLOADS};

const USAGE: &str = "usage: ips-repobench --workload <fit-dtcr|fit-exact|serve-closed> \
[--seed N] [--seconds N] [--trace 0|1] [--inject-wrong-prediction]";

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        inject_wrong_prediction: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--inject-wrong-prediction" {
            opts.inject_wrong_prediction = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = plan(&workload, THREADS) else {
        eprintln!("unknown workload {workload:?}; one of {WORKLOADS:?}\n{USAGE}");
        return ExitCode::from(2);
    };
    match run(&plan, &opts) {
        Ok(outcome) => {
            print!("{}", outcome.human());
            println!("{}", outcome.json_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
