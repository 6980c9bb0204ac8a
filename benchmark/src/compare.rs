//! Parent versus change over saved runs.
//!
//! A saved run is the standard output of one `rperf-benchmark` run on a
//! single workload: its `# result` line names the workload, seed and
//! outcome digest, and its last line is the JSON result. Runs pair by
//! equal seed within a workload; a seed without a partner fails the
//! comparison. For every end-to-end metric the change is *improved* when
//! it wins at least nine pairs in ten (ties count for neither) and the
//! medians differ, in its favour, by more than the parent's interquartile
//! range; *unresolved* when the spread of either side is wider than the
//! metric's bound and the change does not beat every parent run;
//! *regressed* when its median is worse than the parent's by more than
//! the bound; and *within bound* otherwise. A metric with a bound of 0 is
//! exact: it *regressed* when the change is worse on any pair. Same-seed
//! pairs must have equal outcome digests.

use std::collections::{BTreeMap, BTreeSet};

use rperf_stats::json::{self, Value};

use crate::measure::{median, quartiles, ratio, relative_iqr};

/// One saved run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// The workload it ran.
    pub workload: String,
    /// Its workload seed.
    pub seed: u64,
    /// The outcome digest, as printed.
    pub digest: String,
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Jobs and requests that failed.
    pub failed: u64,
    /// Every metric of the result line, `(name, value)`.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Reads a saved run's `# result` line and its final JSON line.
    ///
    /// # Errors
    ///
    /// Names what is missing or malformed.
    pub fn parse(text: &str) -> Result<RunResult, String> {
        let header = text
            .lines()
            .find_map(|l| l.strip_prefix("# result "))
            .ok_or("no `# result` line")?;
        let field = |key: &str| {
            header
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                .ok_or(format!("the `# result` line has no `{key}`"))
        };
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        let doc = json::parse(last).map_err(|e| format!("the last line is not JSON: {e}"))?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("the result has no `{key}` count"))
        };
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("the result has no `metrics`")?
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(RunResult {
            workload: field("workload")?.to_string(),
            seed: field("seed")?
                .parse()
                .map_err(|e| format!("bad seed in the `# result` line: {e}"))?,
            digest: field("digest")?.to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// An end-to-end metric's regression bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// The metric.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// The share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Names the first malformed entry.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no `end_to_end` list")?;
    entries
        .iter()
        .map(|e| {
            let name = e
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: e.get("better").and_then(Value::as_str) == Some("lower"),
                bound: e
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or(format!("`{name}` has no bound"))?,
            })
        })
        .collect()
}

/// How a change compares with its parent on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The gain rule holds.
    Improved,
    /// No worse than the bound allows.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn better(a: f64, b: f64, lower_is_better: bool) -> bool {
    if lower_is_better {
        a < b
    } else {
        a > b
    }
}

/// Pairs the change won, out of `(parent, change)` pairs.
pub fn wins(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|&&(p, c)| better(c, p, lower_is_better))
        .count()
}

/// The gain rule: the change wins at least nine pairs in ten, and its
/// median beats the parent's by more than the parent's interquartile
/// range.
pub fn gain_shown(pairs: &[(f64, f64)], lower_is_better: bool) -> bool {
    let (parent, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let Some((q1, q3)) = quartiles(&parent) else {
        return false;
    };
    let (mp, mc) = (median(&parent), median(&change));
    10 * wins(pairs, lower_is_better) >= 9 * pairs.len()
        && better(mc, mp, lower_is_better)
        && (mc - mp).abs() > q3 - q1
}

/// The verdict on one metric from `(parent, change)` pairs of equal
/// seed. A bound of 0 marks an exact metric, worse on no pair.
pub fn verdict(pairs: &[(f64, f64)], lower_is_better: bool, bound: f64) -> Verdict {
    if bound == 0.0 {
        return if pairs.iter().any(|&(p, c)| better(p, c, lower_is_better)) {
            Verdict::Regressed
        } else if gain_shown(pairs, lower_is_better) {
            Verdict::Improved
        } else {
            Verdict::WithinBound
        };
    }
    if gain_shown(pairs, lower_is_better) {
        return Verdict::Improved;
    }
    let (parent, change): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    let beats_every_parent = change
        .iter()
        .all(|&c| parent.iter().all(|&p| better(c, p, lower_is_better)));
    if relative_iqr(&parent).max(relative_iqr(&change)) > bound && !beats_every_parent {
        return Verdict::Unresolved;
    }
    let (mp, mc) = (median(&parent), median(&change));
    let worse = if lower_is_better { mc - mp } else { mp - mc };
    if ratio(worse, mp.abs()) > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

fn spread_text(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs).unwrap_or((0.0, 0.0));
    format!("{:.6} [{q1:.6}, {q3:.6}]", median(xs))
}

/// A workload's runs of one side, by seed.
fn by_seed<'a>(runs: &'a [RunResult], workload: &str) -> BTreeMap<u64, &'a RunResult> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .map(|r| (r.seed, r))
        .collect()
}

/// Seeds of `a` that `b` lacks, as text.
fn missing(a: &BTreeMap<u64, &RunResult>, b: &BTreeMap<u64, &RunResult>) -> Vec<String> {
    a.keys()
        .filter(|s| !b.contains_key(s))
        .map(u64::to_string)
        .collect()
}

/// The comparison table, and whether the change passes: every seed
/// paired, no metric regressed, no more failures than the parent, equal
/// outcome digests on every pair, and the `claim` (`workload:metric`), if
/// given, improved.
pub fn report(
    bounds: &[Bound],
    parent: &[RunResult],
    change: &[RunResult],
    claim: Option<&str>,
) -> (String, bool) {
    let workloads: BTreeSet<&str> = parent
        .iter()
        .chain(change)
        .map(|r| r.workload.as_str())
        .collect();
    let mut out = format!(
        "{:<13} {:<13} {:<40} {:<40} {:>8} {:>6}  verdict\n",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"
    );
    let mut ok = true;
    let mut claim_met = claim.is_none();
    for w in workloads {
        let (p, c) = (by_seed(parent, w), by_seed(change, w));
        let pairs: Vec<(&RunResult, &RunResult)> = p
            .iter()
            .filter_map(|(seed, &pr)| Some((pr, *c.get(seed)?)))
            .collect();
        for (side, lacking) in [("change", missing(&p, &c)), ("parent", missing(&c, &p))] {
            if !lacking.is_empty() {
                ok = false;
                out.push_str(&format!(
                    "{w:<13} UNPAIRED      no {side} run for seed(s) {}\n",
                    lacking.join(", ")
                ));
            }
        }
        for b in bounds {
            let values: Vec<(f64, f64)> = pairs
                .iter()
                .filter_map(|(pr, cr)| Some((pr.metric(&b.name)?, cr.metric(&b.name)?)))
                .collect();
            if values.is_empty() {
                continue;
            }
            let v = verdict(&values, b.lower_is_better, b.bound);
            ok &= v != Verdict::Regressed;
            if claim == Some(format!("{w}:{}", b.name).as_str()) {
                claim_met = v == Verdict::Improved;
            }
            let (pv, cv): (Vec<f64>, Vec<f64>) = values.iter().copied().unzip();
            out.push_str(&format!(
                "{w:<13} {:<13} {:<40} {:<40} {:>+7.2}% {:>3}/{:<2}  {}\n",
                b.name,
                spread_text(&pv),
                spread_text(&cv),
                ratio(median(&cv) - median(&pv), median(&pv).abs()) * 100.0,
                wins(&values, b.lower_is_better),
                values.len(),
                v.word()
            ));
        }
        let failed = |runs: &BTreeMap<u64, &RunResult>| {
            let f: u64 = runs.values().map(|r| r.failed).sum();
            let a: u64 = runs.values().map(|r| r.attempted).sum();
            (f, a, ratio(f as f64, a as f64))
        };
        let ((pf, pa, pfrac), (cf, ca, cfrac)) = (failed(&p), failed(&c));
        ok &= cfrac <= pfrac;
        out.push_str(&format!(
            "{w:<13} failed_frac   parent {pf}/{pa}, change {cf}/{ca}{}\n",
            if cfrac > pfrac { "  REGRESSED" } else { "" }
        ));
        let differ: Vec<String> = pairs
            .iter()
            .filter(|(pr, cr)| pr.digest != cr.digest)
            .map(|(pr, _)| pr.seed.to_string())
            .collect();
        ok &= differ.is_empty();
        out.push_str(&format!(
            "{w:<13} digests       identical on {} of {} same-seed pairs{}\n",
            pairs.len() - differ.len(),
            pairs.len(),
            if differ.is_empty() {
                String::new()
            } else {
                format!("  DIFFER on seed(s) {}", differ.join(", "))
            }
        ));
    }
    if let Some(claim) = claim {
        out.push_str(&format!(
            "claim {claim}: {}\n",
            if claim_met { "met" } else { "NOT met" }
        ));
    }
    (out, ok && claim_met)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    #[test]
    fn a_gain_needs_nine_wins_in_ten_and_a_median_beyond_the_parent_iqr() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster = [9.0, 9.1, 8.9, 9.2, 9.0, 9.1, 9.0, 8.8, 9.1, 9.0];
        assert!(gain_shown(&pairs(&parent, &faster), true));
        assert_eq!(
            verdict(&pairs(&parent, &faster), true, 0.1),
            Verdict::Improved
        );
        // Eight wins in ten is not enough, however large the gain.
        let mut two_losses = faster;
        two_losses[0] = 11.0;
        two_losses[1] = 11.0;
        assert!(!gain_shown(&pairs(&parent, &two_losses), true));
        // Ties count for neither side.
        assert_eq!(wins(&pairs(&[1.0, 2.0], &[1.0, 1.0]), true), 1);
        // Winning every pair by less than the parent's IQR is no gain.
        let barely: Vec<f64> = parent.iter().map(|p| p - 0.01).collect();
        assert!(!gain_shown(&pairs(&parent, &barely), true));
        assert_eq!(
            verdict(&pairs(&parent, &barely), true, 0.1),
            Verdict::WithinBound
        );
        // Higher-is-better metrics win upward.
        assert!(gain_shown(&pairs(&faster, &parent), false));
    }

    #[test]
    fn worse_than_the_bound_regresses_and_wide_spreads_are_unresolved() {
        let parent = [10.0; 10];
        let slower = [11.5; 10];
        assert_eq!(
            verdict(&pairs(&parent, &slower), true, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&pairs(&parent, &slower), true, 0.2),
            Verdict::WithinBound
        );
        let noisy = [6.0, 14.0, 6.0, 14.0, 6.0, 14.0, 6.0, 14.0, 6.0, 14.0];
        assert_eq!(
            verdict(&pairs(&parent, &noisy), true, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn saved_runs_round_trip_through_the_report() {
        let run = |seed: u64, wall: f64| {
            format!(
                "banner\n# result workload=converged seed={seed} trace=0 passes=3 digest=00ff\n\
                 {{\"correct\":true,\"attempted\":17,\"failed\":0,\"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}}}}}\n"
            )
        };
        let parsed = RunResult::parse(&run(4, 1.5)).expect("a saved run parses");
        assert_eq!(parsed.workload, "converged");
        assert_eq!((parsed.seed, parsed.attempted), (4, 17));
        assert_eq!(parsed.metric("wall_s"), Some(1.5));
        assert!(RunResult::parse("{}").is_err());

        let b =
            bounds(r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}"#)
                .expect("bounds parse");
        let parent: Vec<RunResult> = (0..10)
            .map(|s| RunResult::parse(&run(s, 2.0 + s as f64 * 0.001)).unwrap())
            .collect();
        let change: Vec<RunResult> = (0..10)
            .map(|s| RunResult::parse(&run(s, 1.0 + s as f64 * 0.001)).unwrap())
            .collect();
        let (table, ok) = report(&b, &parent, &change, Some("converged:wall_s"));
        assert!(ok, "{table}");
        assert!(table.contains("improved"), "{table}");
        assert!(table.contains("identical on 10 of 10"), "{table}");
        let (table, ok) = report(&b, &change, &parent, None);
        assert!(!ok, "{table}");
        assert!(table.contains("REGRESSED"), "{table}");
    }

    #[test]
    fn an_exact_metric_regresses_when_any_pair_is_worse() {
        let parent = [0.3, 0.2, 0.25, 0.3, 0.2];
        assert_eq!(
            verdict(&pairs(&parent, &parent), true, 0.0),
            Verdict::WithinBound
        );
        let mut one_worse = parent;
        one_worse[3] += 1e-9;
        assert_eq!(
            verdict(&pairs(&parent, &one_worse), true, 0.0),
            Verdict::Regressed
        );
        // The same values under a relative bound wider than their spread
        // are within it.
        assert_eq!(
            verdict(&pairs(&parent, &one_worse), true, 0.5),
            Verdict::WithinBound
        );
        let all_better: Vec<f64> = parent.iter().map(|p| p / 2.0).collect();
        assert_eq!(
            verdict(&pairs(&parent, &all_better), true, 0.0),
            Verdict::Improved
        );
    }

    #[test]
    fn runs_pair_by_seed_and_digests_must_match() {
        let run = |seed: u64, digest: &str| {
            RunResult::parse(&format!(
                "# result workload=converged seed={seed} trace=0 passes=3 digest={digest}\n\
                 {{\"correct\":true,\"attempted\":5,\"failed\":0,\"metrics\":{{\"model_err\":{{\"value\":0.25,\"unit\":\"ratio\"}}}}}}\n"
            ))
            .unwrap()
        };
        let b = bounds(
            r#"{"end_to_end":[{"name":"model_err","unit":"ratio","better":"lower","bound":0}]}"#,
        )
        .expect("bounds parse");
        let parent = vec![run(1, "aa"), run(2, "bb"), run(3, "cc")];
        // Listed in another order, the same seeds still pair.
        let change = vec![run(3, "cc"), run(1, "aa"), run(2, "bb")];
        let (table, ok) = report(&b, &parent, &change, None);
        assert!(ok, "{table}");
        assert!(table.contains("identical on 3 of 3"), "{table}");

        let (table, ok) = report(&b, &parent, &change[..2], None);
        assert!(!ok, "{table}");
        assert!(table.contains("no change run for seed(s) 2"), "{table}");

        let changed = vec![run(1, "aa"), run(2, "b0"), run(3, "cc")];
        let (table, ok) = report(&b, &parent, &changed, None);
        assert!(!ok, "{table}");
        assert!(table.contains("DIFFER on seed(s) 2"), "{table}");
    }
}
