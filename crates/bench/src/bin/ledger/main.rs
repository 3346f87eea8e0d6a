//! `ledger`: the repository's one benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//!     one pinned run of one workload; the last line of stdout is the
//!     result as one JSON object (what BENCHMARK.json's command runs)
//! ledger run [--seed <n>] [--rounds <r>] [--seconds <s>] [--smoke]
//!     every workload, <r> interleaved rounds each in a fresh process,
//!     then one traced run each; prints every metric with its unit and
//!     writes target/ledger/result.json
//! ledger compare <a.json> <b.json>
//!     one row per (workload, end-to-end metric): medians, quartiles,
//!     delta against the metric's bound, a verdict
//! ```
//!
//! See `README.md` beside this file for what is measured and why.

mod compare;
mod env;
mod json;
mod layerpass;
mod layers;
mod orchestrate;
mod reference;
mod report;
mod scenario;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Params, Sizes};

/// `--name value` pairs and bare flags after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read {v:?}")))
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Where a run keeps its files: inside the directory it was started
/// in, under `target/ledger/`.
fn output_dir() -> PathBuf {
    PathBuf::from("target").join("ledger")
}

/// One pinned run of one workload (the contract's command).
fn single_run(args: &Args) -> Result<bool, String> {
    let workload = args
        .value("--workload")
        .ok_or("--workload <name> is required")?
        .to_string();
    let smoke = args.flag("--smoke");
    let params = Params {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(scenario::DEFAULT_SEED),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(orchestrate::DEFAULT_SECONDS),
        trace: args.parsed::<u8>("--trace")?.unwrap_or(0) != 0,
        sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
        scratch: output_dir().join(format!("run-{}", std::process::id())),
    };
    if params.seconds.is_nan() || params.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let cpu = env::pin_to_first_cpu()?;
    eprintln!(
        "ledger: {} seed {} for {} s, trace {}, pinned to cpu {cpu}",
        params.workload, params.seed, params.seconds, params.trace as u8
    );
    workloads::cleanup(&params.scratch);
    std::fs::create_dir_all(&params.scratch).map_err(|e| e.to_string())?;
    let result = measured(&params, smoke);
    workloads::cleanup(&params.scratch);
    result
}

fn measured(params: &Params, smoke: bool) -> Result<bool, String> {
    let mut outcome = workloads::run(params)?;
    if let Some(expected) =
        orchestrate::recorded_fingerprint(&params.workload, params.seed, params.seconds, smoke)
    {
        outcome.tally.check(if outcome.fingerprint == expected {
            Ok(())
        } else {
            Err(format!(
                "the default seed's inputs drifted: fingerprint {:08x}, recorded {expected:08x}",
                outcome.fingerprint
            ))
        });
    }
    let metrics = if params.trace {
        let metrics = report::per_layer(&outcome, params, env::cpus_allowed().len())?;
        orchestrate::write_spans(&output_dir(), &params.workload, &outcome)?;
        metrics
    } else {
        report::end_to_end(&outcome)?
    };
    let tally = &outcome.tally;
    for why in &tally.examples {
        eprintln!("ledger: failed: {why}");
    }
    let support = stats::samples_beyond(outcome.plain.op_ns.len(), 99.0);
    eprintln!(
        "ledger: fingerprint {:08x}, {} ops timed ({} beyond p99{}), {} attempted, {} failed",
        outcome.fingerprint,
        outcome.plain.op_ns.len(),
        support,
        if support < report::TAIL_SUPPORT {
            ": thin support"
        } else {
            ""
        },
        tally.attempted,
        tally.failed
    );
    for (name, value) in &metrics {
        eprintln!("  {name} = {value}");
    }
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(correct)
}

fn plan(args: &Args) -> Result<orchestrate::Plan, String> {
    let smoke = args.flag("--smoke");
    Ok(orchestrate::Plan {
        seed: args.parsed("--seed")?.unwrap_or(scenario::DEFAULT_SEED),
        rounds: args
            .parsed("--rounds")?
            .unwrap_or(if smoke { 1 } else { 5 }),
        seconds: args.parsed("--seconds")?.unwrap_or(if smoke {
            1.0
        } else {
            orchestrate::DEFAULT_SECONDS
        }),
        smoke,
        out: output_dir(),
    })
}

const USAGE: &str =
    "usage: ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
       ledger run [--seed <n>] [--rounds <r>] [--seconds <s>] [--smoke]
       ledger compare <a.json> <b.json>";

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("run" | "compare") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let result = match command.as_str() {
        "run" => plan(&args).and_then(|plan| orchestrate::run(&plan)),
        "compare" => match args.0.as_slice() {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.into()),
        },
        _ if args.flag("--workload") => single_run(&args),
        // `ledger --smoke` alone is the quick self-check.
        _ if args.flag("--smoke") => plan(&args).and_then(|plan| orchestrate::run(&plan)),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}
