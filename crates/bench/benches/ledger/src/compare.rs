//! `ledger compare A B`: is B worse than A on any end-to-end metric?
//!
//! Each file holds one record per line, as `--out` appends them, so a file
//! may carry several runs of one workload (the ten alternating runs of a
//! parent/change pair). Runs are keyed by `(workload, seed)`. For each key
//! and end-to-end metric the two sides' medians are compared under the
//! metric's rule: virtual and count metrics exactly — any increase is
//! `worse`, and so is a side whose own runs disagree — host metrics within
//! their bound. A host metric whose run-to-run spread (the distance
//! between the quartiles) is wider than its bound on either side is
//! `unresolved`, not `ok`: the runs cannot tell a regression of that size
//! from noise.

use std::collections::BTreeMap;

use crate::catalog::{Rule, END_TO_END};
use crate::json::Json;
use crate::run::{median, quartiles};

/// One side's values of one metric under one `(workload, seed)`.
#[derive(Debug, Default, Clone)]
struct Series {
    /// One value per record.
    values: Vec<f64>,
    /// The per-iteration samples of the first record, which stand in for
    /// run-to-run spread when the side has too few records to show it.
    iteration_samples: Vec<f64>,
}

impl Series {
    fn median(&self) -> f64 {
        median(&self.values)
    }

    /// Distance between the quartiles: across records when there are at
    /// least four, else across the iterations inside the one record.
    fn quartile_distance(&self) -> f64 {
        let basis = if self.values.len() >= 4 {
            &self.values
        } else {
            &self.iteration_samples
        };
        let (q1, q3) = quartiles(basis);
        q3 - q1
    }

    fn agrees(&self) -> bool {
        self.values
            .windows(2)
            .all(|w| w[0].to_bits() == w[1].to_bits())
    }
}

type Side = BTreeMap<(String, u64), BTreeMap<String, Series>>;

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = || format!("{path}:{}", n + 1);
        let record = Json::parse(line).map_err(|e| format!("{}: {e}", at()))?;
        let field = |name: &str| {
            record
                .get(name)
                .ok_or_else(|| format!("{}: record has no `{name}`", at()))
        };
        if field("smoke")?.as_bool() != Some(false) {
            return Err(format!(
                "{}: a --smoke record measures a reduced scale and cannot be compared",
                at()
            ));
        }
        let workload = field("workload")?
            .as_str()
            .ok_or_else(|| format!("{}: `workload` is not a string", at()))?;
        let seed = field("seed")?
            .as_f64()
            .ok_or_else(|| format!("{}: `seed` is not a number", at()))? as u64;
        let e2e = field("e2e")?;
        let metrics = side.entry((workload.to_owned(), seed)).or_default();
        for m in &END_TO_END {
            let entry = e2e
                .get(m.def.name)
                .ok_or_else(|| format!("{}: no end-to-end metric `{}`", at(), m.def.name))?;
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: `{}` has no numeric value", at(), m.def.name))?;
            let series = metrics.entry(m.def.name.to_owned()).or_default();
            if series.values.is_empty() {
                series.iteration_samples = entry
                    .get("samples")
                    .and_then(Json::as_arr)
                    .map(|a| a.iter().filter_map(Json::as_f64).collect())
                    .unwrap_or_default();
            }
            series.values.push(value);
        }
    }
    if side.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(side)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

fn judge(rule: Rule, a: &Series, b: &Series) -> (Verdict, String) {
    let (base, change) = (a.median(), b.median());
    match rule {
        Rule::Exact => {
            let verdict = if !a.agrees() || !b.agrees() {
                // Same commit, same seed, different simulated statistics.
                Verdict::Worse
            } else if change > base {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            (verdict, "exact".to_owned())
        }
        Rule::Within { share, floor } => {
            let allowed = (share * base).max(floor);
            let (noise_a, noise_b) = (a.quartile_distance(), b.quartile_distance());
            let verdict = if change - base > allowed {
                Verdict::Worse
            } else if noise_a.max(noise_b) > allowed {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            let bound = if floor > 0.0 {
                format!("+{:.0}% or +{floor}", share * 100.0)
            } else {
                format!("+{:.0}%", share * 100.0)
            };
            let pct = |noise: f64, median: f64| noise / median.max(f64::MIN_POSITIVE) * 100.0;
            (
                verdict,
                format!(
                    "{bound} (spread {:.1}% / {:.1}%)",
                    pct(noise_a, base),
                    pct(noise_b, change)
                ),
            )
        }
    }
}

/// Prints one row per (workload, seed, metric) and returns whether any
/// metric got worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut any_worse = false;
    println!(
        "{:<18} {:>6} {:<26} {:>18} {:>18} {:>9}  {:<10} bound",
        "workload", "seed", "metric", "A", "B", "delta", "verdict"
    );
    for (key, metrics_a) in &a {
        let Some(metrics_b) = b.get(key) else {
            return Err(format!(
                "{path_b} has no record of {} at seed {}",
                key.0, key.1
            ));
        };
        for m in &END_TO_END {
            let (sa, sb) = (&metrics_a[m.def.name], &metrics_b[m.def.name]);
            let (verdict, bound) = judge(m.rule, sa, sb);
            any_worse |= verdict == Verdict::Worse;
            let (va, vb) = (sa.median(), sb.median());
            let delta = if va == 0.0 {
                if vb == 0.0 {
                    "0".to_owned()
                } else {
                    "new".to_owned()
                }
            } else {
                format!("{:+.2}%", (vb - va) / va * 100.0)
            };
            println!(
                "{:<18} {:>6} {:<26} {:>18.6} {:>18.6} {:>9}  {:<10} {bound}",
                key.0,
                key.1,
                m.def.name,
                va,
                vb,
                delta,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    if let Some(key) = b.keys().find(|k| !a.contains_key(*k)) {
        return Err(format!(
            "{path_a} has no record of {} at seed {}",
            key.0, key.1
        ));
    }
    Ok(any_worse)
}
