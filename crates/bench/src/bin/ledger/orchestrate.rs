//! `ledger run`: the whole benchmark in one command.
//!
//! Re-executes this binary once per round (a fresh process has a clean
//! heap and clean caches; each pins itself to one CPU), workloads
//! interleaved `A B C D D C B A …` so slow drift of the machine hits
//! every workload alike, then once more per workload with `--trace 1`.
//! Every end-to-end value reported is the median over rounds, with its
//! quartiles and every round's value beside it.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;
use crate::report::{END_TO_END, PER_LAYER};
use crate::scenario::DEFAULT_SEED;
use crate::spans;
use crate::stats::{median, quartiles};
use crate::workloads::{Outcome, WORKLOADS};

pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub seconds: f64,
    pub smoke: bool,
    pub out: PathBuf,
}

/// How long one run measures unless told otherwise: `run_seconds` in
/// `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// Fingerprints of the inputs under the default seed, sizes and
/// seconds (`mixed_live` generates as many frames as its open loop
/// needs). Such a run fails if its inputs no longer hash to these: the
/// generator, `sitm_sim` or the vendored RNG drifted, and numbers
/// taken before and after are not comparable.
const RECORDED: [(&str, u32); 4] = [
    ("ingest_rush", 0x4e9d_6a1d),
    ("point_lookup", 0xd711_c783),
    ("scan_cold", 0xc2dd_f292),
    ("mixed_live", 0x20af_b33e),
];

pub fn recorded_fingerprint(workload: &str, seed: u64, seconds: f64, smoke: bool) -> Option<u32> {
    if seed != DEFAULT_SEED || seconds != DEFAULT_SECONDS || smoke {
        return None;
    }
    RECORDED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, recorded)| recorded)
}

/// Spans of the first requests of the traced section, client and
/// server side, as JSON lines.
pub fn write_spans(dir: &Path, workload: &str, outcome: &Outcome) -> Result<(), String> {
    const REQUESTS: usize = 5_000;
    let Some((_, traced)) = &outcome.traced else {
        return Ok(());
    };
    let mut text = String::new();
    for record in traced.records.iter().take(REQUESTS) {
        text.push_str(&spans::to_jsonl(&record.spans()));
        if let Some(tree) = traced.trees.get(&record.request) {
            text.push_str(&spans::to_jsonl(tree));
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    std::fs::write(dir.join(format!("spans-{workload}.jsonl")), text).map_err(|e| e.to_string())
}

/// What one child run printed as its last line.
struct Printed {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

fn child(plan: &Plan, workload: &str, trace: bool) -> Result<Printed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if plan.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(Json::parse);
    let line = parsed.map_err(|why| {
        format!(
            "{workload} (trace {}) printed no result ({why}); it said:\n{}",
            trace as u8,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let number = |key: &str| line.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    Ok(Printed {
        correct: line.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics: line
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

pub fn run(plan: &Plan) -> Result<bool, String> {
    let mut rounds: Vec<Vec<Printed>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 0..plan.rounds {
        let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!(
                "ledger: round {}/{} {}",
                round + 1,
                plan.rounds,
                WORKLOADS[w]
            );
            rounds[w].push(child(plan, WORKLOADS[w], false)?);
        }
    }
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for (w, name) in WORKLOADS.iter().enumerate() {
        eprintln!("ledger: traced pass {name}");
        let traced = child(plan, name, true)?;
        let runs = &rounds[w];
        all_correct &= traced.correct && runs.iter().all(|r| r.correct);
        println!("\n{name}");
        let mut end_to_end = Vec::new();
        for def in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(n, _)| n == def.name))
                .map(|&(_, v)| v)
                .collect();
            if values.len() != runs.len() {
                return Err(format!("{name}: a round did not report {}", def.name));
            }
            let (q1, q3) = if values.len() >= 2 {
                quartiles(&values)
            } else {
                (values[0], values[0])
            };
            println!(
                "  {:<28} {:>14.4} {:<4} (q1 {:.4}, q3 {:.4}, n {})",
                def.name,
                median(&values),
                def.unit,
                q1,
                q3,
                values.len()
            );
            end_to_end.push(Json::obj([
                ("name", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better)),
                ("bound", Json::Num(def.bound)),
                ("median", Json::Num(median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]));
        }
        let mut per_layer = Vec::new();
        for def in &PER_LAYER {
            let value = traced
                .metrics
                .iter()
                .find(|(n, _)| n == def.name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{name}: the traced pass did not report {}", def.name))?;
            println!("  {:<44} {:>16.4} {}", def.name, value, def.unit);
            per_layer.push(Json::obj([
                ("name", Json::str(def.name)),
                ("unit", Json::str(def.unit)),
                ("better", Json::str(def.better)),
                ("source", Json::str(def.source)),
                ("moves", Json::str(def.moves)),
                ("exact", Json::Bool(def.exact)),
                ("value", Json::Num(value)),
            ]));
        }
        let total = |f: fn(&Printed) -> f64| runs.iter().map(f).sum::<f64>() + f(&traced);
        workloads.push(Json::obj([
            ("name", Json::str(*name)),
            ("attempted", Json::Num(total(|r| r.attempted))),
            ("failed", Json::Num(total(|r| r.failed))),
            ("end_to_end", Json::Arr(end_to_end)),
            ("per_layer", Json::Arr(per_layer)),
        ]));
    }
    let result = Json::obj([
        ("seed", Json::Num(plan.seed as f64)),
        ("rounds", Json::Num(plan.rounds as f64)),
        ("seconds", Json::Num(plan.seconds)),
        ("smoke", Json::Bool(plan.smoke)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads", Json::Arr(workloads)),
        ("claim", Json::Null),
    ]);
    std::fs::create_dir_all(&plan.out).map_err(|e| e.to_string())?;
    let path = plan.out.join("result.json");
    std::fs::write(&path, result.render() + "\n").map_err(|e| e.to_string())?;
    println!(
        "\nwrote {} ({})",
        path.display(),
        if all_correct {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}
