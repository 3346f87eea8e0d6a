//! `ledger compare A.json B.json`: the judgement every A/B in this
//! repository uses, and the benchmark's own self-agreement check.
//!
//! One row per (workload, end-to-end metric). `regressed`: B's median
//! is worse than A's by more than the metric's bound. `unresolved`:
//! the run-to-run spread of either side is wider than the bound and
//! the two sides' runs overlap, so the rounds cannot tell — report it
//! as that, never as unchanged. `ok` otherwise.

use std::path::Path;

use crate::json::Json;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges one metric on one workload. `worse` is how much worse B's
/// median is than A's as a share of A's (negative when B is better).
/// With `judge_spread` off only the medians count (`setup_s`: a run
/// already reports the median of its set-ups, and the acceptance check
/// does not judge its spread either).
pub fn judge(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
    judge_spread: bool,
) -> (f64, Verdict) {
    let med = |v: &[f64]| crate::stats::median(v);
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse = sign * (med(b) - med(a)) / med(a);
    let wide = |v: &[f64]| judge_spread && v.len() >= 2 && spread(v) > bound;
    // B clear of A on the good side: every run of B beats every run of A.
    let b_clear = if higher_is_better {
        b.iter().copied().fold(f64::INFINITY, f64::min)
            > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    } else {
        b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            < a.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let verdict = if (wide(a) || wide(b)) && !b_clear {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(result: &Json) -> Result<&[Json], String> {
    result
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a ledger result: no workloads".to_string())
}

fn named<'a>(list: &'a Json, key: &str, name: &str) -> Option<&'a Json> {
    list.get(key)?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
}

fn layer_value(workload: &Json, name: &str) -> Option<f64> {
    named(workload, "per_layer", name)?.get("value")?.as_f64()
}

/// Refuses results that are not measurements of the same thing, and
/// names a machine that was disturbed while one of them was taken.
fn comparable(a: &Json, b: &Json) -> Result<Vec<String>, String> {
    for key in ["seconds", "smoke"] {
        if a.get(key) != b.get(key) {
            return Err(format!(
                "the results differ in {key}: op counts are not the same"
            ));
        }
    }
    let mut warnings = Vec::new();
    for wa in workloads(a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let wb = workloads(b)?
            .iter()
            .find(|w| w.get("name") == wa.get("name"))
            .ok_or_else(|| format!("{name} is missing from the second result"))?;
        for exact in ["gen.fingerprint", "env.cpus_allowed"] {
            if layer_value(wa, exact) != layer_value(wb, exact) {
                return Err(format!(
                    "{name}: {exact} differs; the runs are not comparable"
                ));
            }
        }
        for canary in ["env.loopback_rtt_p50_us", "env.spin_ns_per_iter"] {
            if let (Some(x), Some(y)) = (layer_value(wa, canary), layer_value(wb, canary)) {
                if x > 1.5 * y || y > 1.5 * x {
                    warnings.push(format!(
                        "{name}: {canary} reads {x:.3} and {y:.3}: a disturbed machine"
                    ));
                }
            }
        }
    }
    Ok(warnings)
}

pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let warnings = comparable(&a, &b)?;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    let mut clean = true;
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let wb = workloads(&b)?
            .iter()
            .find(|w| w.get("name") == wa.get("name"))
            .expect("checked by comparable");
        for ma in wa.get("end_to_end").and_then(Json::as_arr).unwrap_or(&[]) {
            let metric = ma.get("name").and_then(Json::as_str).unwrap_or("?");
            let mb = named(wb, "end_to_end", metric)
                .ok_or_else(|| format!("{name}: {metric} is missing from the second result"))?;
            let values = |m: &Json| -> Vec<f64> {
                m.get("values")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let (va, vb) = (values(ma), values(mb));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}: {metric} has no values"));
            }
            let bound = ma.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
            let (worse, verdict) = judge(&va, &vb, higher, bound, metric != "setup_s");
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<14} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}%  {}",
                name,
                metric,
                crate::stats::median(&va),
                crate::stats::median(&vb),
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Counts that must repeat exactly on one connection without timers.
        if name == "scan_cold" {
            for la in wa.get("per_layer").and_then(Json::as_arr).unwrap_or(&[]) {
                if la.get("exact") != Some(&Json::Bool(true)) {
                    continue;
                }
                let metric = la.get("name").and_then(Json::as_str).unwrap_or("?");
                let (x, y) = (
                    la.get("value"),
                    named(wb, "per_layer", metric).and_then(|m| m.get("value")),
                );
                if x != y {
                    clean = false;
                    println!("{name:<14} {metric:<28} exact count differs: {x:?} vs {y:?}");
                }
            }
        }
    }
    for warning in &warnings {
        println!("warning: {warning}");
    }
    Ok(clean && warnings.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_spread_and_overlap() {
        let tight_a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // 3 % slower, bound 10 %: fine.
        let b: Vec<f64> = tight_a.iter().map(|v| v * 1.03).collect();
        assert_eq!(judge(&tight_a, &b, false, 0.10, true).1, Verdict::Ok);
        // 20 % slower: regressed; 20 % lower throughput likewise.
        let b: Vec<f64> = tight_a.iter().map(|v| v * 1.2).collect();
        let (worse, verdict) = judge(&tight_a, &b, false, 0.10, true);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        let b: Vec<f64> = tight_a.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&tight_a, &b, true, 0.10, true).1, Verdict::Regressed);
        // …and 20 % faster is not.
        assert_eq!(judge(&tight_a, &b, false, 0.10, true).1, Verdict::Ok);
        // Rounds that scatter wider than the bound and overlap: unresolved,
        // whichever way the medians lean.
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [85.0, 105.0, 125.0, 95.0, 115.0];
        assert_eq!(
            judge(&noisy_a, &noisy_b, false, 0.10, true).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&noisy_b, &noisy_a, false, 0.10, true).1,
            Verdict::Unresolved
        );
        // Only the medians count where the spread is not judged.
        assert_eq!(judge(&noisy_a, &noisy_b, false, 0.10, false).1, Verdict::Ok);
        // Wide spread, but every run of B beats every run of A: resolved.
        let clear_b = [40.0, 50.0, 60.0, 45.0, 55.0];
        assert_eq!(judge(&noisy_a, &clear_b, false, 0.10, true).1, Verdict::Ok);
    }

    #[test]
    fn refuses_results_of_different_inputs() {
        let result = |fingerprint: f64, rtt: f64| {
            Json::parse(&format!(
                r#"{{"seconds":10,"smoke":false,"workloads":[{{"name":"scan_cold",
                "per_layer":[{{"name":"gen.fingerprint","value":{fingerprint}}},
                {{"name":"env.cpus_allowed","value":1}},
                {{"name":"env.loopback_rtt_p50_us","value":{rtt}}}],"end_to_end":[]}}]}}"#
            ))
            .unwrap()
        };
        assert!(comparable(&result(1.0, 5.0), &result(2.0, 5.0)).is_err());
        assert_eq!(
            comparable(&result(1.0, 5.0), &result(1.0, 5.5))
                .unwrap()
                .len(),
            0
        );
        assert_eq!(
            comparable(&result(1.0, 5.0), &result(1.0, 9.0))
                .unwrap()
                .len(),
            1
        );
    }
}
