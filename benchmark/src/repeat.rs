//! `all` and `repeat`: run the workloads as child processes — exactly what
//! the pipeline's driver does — and, for `repeat`, check that two sets of
//! runs of the same build agree within the benchmark's own bounds, and say
//! which of the issue's further criteria the runs met.

use crate::contract::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median, quartiles, range_share};
use crate::workload::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

/// `metric name → value` of one run.
type RunValues = BTreeMap<String, f64>;

/// Runs one workload once in a child process and parses its
/// `workload/metric value unit` lines. `Err` carries what went wrong.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<RunValues, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: {}\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(parse_lines(workload, &stdout))
}

/// The `workload/metric value unit` lines of a run's output.
fn parse_lines(workload: &str, stdout: &str) -> RunValues {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.strip_prefix(workload)?.strip_prefix('/')?.split(' ');
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

fn selected(args: &Args) -> Vec<&'static str> {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect()
}

/// `all`: every workload once.
pub fn all(args: &Args) -> ExitCode {
    let mut failed = false;
    for workload in selected(args) {
        if let Err(e) = run_child(workload, args.seed, args.seconds, args.trace) {
            eprintln!("{e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// By how much of `first` the `second` median is *worse* (negative: better).
fn worsening(metric: &EndToEnd, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if metric.higher_is_better {
        -change
    } else {
        change
    }
}

/// The issue's limit on a metric's single-run spread, (max − min)/median
/// over all runs of all sets.
const MAX_RANGE: f64 = 0.10;
/// Request-latency samples per run the issue asks of every workload.
const MIN_SAMPLES: f64 = 8_000.0;
/// Measured interval the issue asks for, s.
const ISSUE_SECONDS: u64 = 30;
/// The issue's limit on the generator's p99 lateness, µs.
const MAX_LATE_P99_US: f64 = 5_000.0;

/// The figures of a workload's runs that the issue's per-run criteria are
/// about: the smallest latency sample and the worst generator lateness.
#[derive(Debug, Clone, Copy)]
struct RunFacts {
    fewest_samples: f64,
    worst_late_p99_us: f64,
}

/// One row of the repeatability table.
struct Row {
    workload: &'static str,
    metric: &'static EndToEnd,
    /// Values per set, in run order.
    sets: Vec<Vec<f64>>,
}

impl Row {
    fn all_values(&self) -> Vec<f64> {
        self.sets.iter().flatten().copied().collect()
    }

    /// Largest worsening of any later set's median against an earlier one.
    fn worst_gap(&self) -> f64 {
        let medians: Vec<f64> = self.sets.iter().map(|s| median(s)).collect();
        let mut worst = 0.0f64;
        for (i, a) in medians.iter().enumerate() {
            for b in &medians[i + 1..] {
                worst =
                    worst
                        .max(worsening(self.metric, *a, *b))
                        .max(worsening(self.metric, *b, *a));
            }
        }
        worst
    }

    /// Largest quartile spread of any one set.
    fn worst_spread(&self) -> f64 {
        self.sets.iter().map(|v| iqr_share(v)).fold(0.0, f64::max)
    }

    /// The smallest bound this row's runs support: twice the gap between
    /// set medians (the issue's rule) and three times a set's quartile
    /// spread (so that the spread the pipeline computes sits below a third
    /// of the bound). `setup_s` is bounded on its medians only.
    fn supported_bound(&self) -> f64 {
        let by_gap = 2.0 * self.worst_gap();
        if self.metric.name == "setup_s" {
            by_gap
        } else {
            by_gap.max(3.0 * self.worst_spread())
        }
    }

    /// Every criterion the row misses, and whether one of them is the
    /// pipeline's own (a gap or a quartile spread over the bound), which
    /// fails `repeat`.
    fn unmet(&self) -> (Vec<&'static str>, bool) {
        let bound = self.metric.bound;
        let mut unmet = Vec::new();
        if self.worst_gap() > bound {
            unmet.push("FAIL: gap over bound");
        }
        if self.metric.name != "setup_s" && self.worst_spread() > bound {
            unmet.push("FAIL: spread over bound");
        }
        let fatal = !unmet.is_empty();
        if !fatal && self.supported_bound() > bound {
            unmet.push("not met: bound under 2 × gap or 3 × spread");
        }
        if range_share(&self.all_values()) > MAX_RANGE {
            unmet.push("not met: single-run spread over 10 %");
        }
        (unmet, fatal)
    }
}

fn render(rows: &[Row], args: &Args) -> (String, bool) {
    let mut o = String::new();
    let mut ok = true;
    let _ = writeln!(
        o,
        "| workload | metric | unit | {} | IQR/median per set | (max−min)/median, all runs | worst gap between set medians | bound | verdict |",
        (1..=args.sets)
            .map(|s| format!("set {s}: median [q1, q3]"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    let _ = writeln!(
        o,
        "|---|---|---|{}---|---|---|---|---|",
        "---|".repeat(args.sets)
    );
    for row in rows {
        let sets: Vec<String> = row
            .sets
            .iter()
            .map(|values| {
                let (q1, q3) = quartiles(values);
                format!("{:.4} [{:.4}, {:.4}]", median(values), q1, q3)
            })
            .collect();
        let spreads: Vec<String> = row
            .sets
            .iter()
            .map(|v| format!("{:.1} %", iqr_share(v) * 100.0))
            .collect();
        let gap = row.worst_gap();
        let range = range_share(&row.all_values());
        let (unmet, fatal) = row.unmet();
        ok &= !fatal;
        let verdict = if unmet.is_empty() {
            "ok".to_string()
        } else {
            unmet.join("; ")
        };
        let _ = writeln!(
            o,
            "| {} | {} | {} | {} | {} | {:.1} % | {:.1} % | {:.0} % | {} |",
            row.workload,
            row.metric.name,
            row.metric.unit,
            sets.join(" | "),
            spreads.join(", "),
            range * 100.0,
            gap * 100.0,
            row.metric.bound * 100.0,
            verdict
        );
    }
    (o, ok)
}

/// What the table supports per metric, and the issue's criteria that are
/// about a run, not about a metric.
fn render_criteria(rows: &[Row], facts: &BTreeMap<&str, RunFacts>, seconds: u64) -> String {
    let met = |yes: bool| if yes { "met" } else { "not met" };
    let mut o = String::from(
        "Bound each metric's rows support (the largest, over the workloads, of 2 × gap and 3 × quartile spread):\n\n\
         | metric | supported | declared | declared ≥ supported |\n|---|---|---|---|\n",
    );
    for metric in &END_TO_END {
        let supported = rows
            .iter()
            .filter(|r| r.metric.name == metric.name)
            .map(Row::supported_bound)
            .fold(0.0, f64::max);
        let _ = writeln!(
            o,
            "| {} | {:.1} % | {:.0} % | {} |",
            metric.name,
            supported * 100.0,
            metric.bound * 100.0,
            met(metric.bound >= supported)
        );
    }
    let _ = writeln!(
        o,
        "\nCriteria of the issue that are about a run:\n\n\
         * measured interval {seconds} s (issue: {ISSUE_SECONDS} s): {}",
        met(seconds >= ISSUE_SECONDS)
    );
    for (workload, f) in facts {
        let _ = writeln!(
            o,
            "* {workload}: at least {} request-latency samples in every run (issue: {MIN_SAMPLES}): {}; \
             generator p99 lateness at most {:.0} us (issue: under {MAX_LATE_P99_US}): {}",
            f.fewest_samples,
            met(f.fewest_samples >= MIN_SAMPLES),
            f.worst_late_p99_us,
            met(f.worst_late_p99_us < MAX_LATE_P99_US)
        );
    }
    o
}

/// `repeat`: `sets` sets of `runs` runs of every workload, a fresh seed
/// per run; prints the table and fails if two sets of the same build
/// disagree by more than a metric's bound, or a set's own quartile spread
/// exceeds it. The issue's other criteria are printed as met or not met.
pub fn repeat(args: &Args) -> ExitCode {
    let workloads = selected(args);
    let mut facts: BTreeMap<&str, RunFacts> = BTreeMap::new();
    let mut rows: Vec<Row> = workloads
        .iter()
        .flat_map(|w| {
            END_TO_END.iter().map(|metric| Row {
                workload: w,
                metric,
                sets: vec![Vec::new(); args.sets],
            })
        })
        .collect();
    // Sets run one after the other, as the driver's do; within a set the
    // workloads alternate so that slow drift hits all of them alike.
    for set in 0..args.sets {
        for run in 0..args.runs {
            let seed = args.seed + (set * args.runs + run) as u64;
            for workload in &workloads {
                match run_child(workload, seed, args.seconds, false) {
                    Ok(values) => {
                        let figure = |name| values.get(name).copied().unwrap_or(0.0);
                        let run = RunFacts {
                            fewest_samples: figure("latency_samples"),
                            worst_late_p99_us: figure("gen_late_p99_us"),
                        };
                        let f = facts.entry(workload).or_insert(run);
                        f.fewest_samples = f.fewest_samples.min(run.fewest_samples);
                        f.worst_late_p99_us = f.worst_late_p99_us.max(run.worst_late_p99_us);
                        for row in rows.iter_mut().filter(|r| r.workload == *workload) {
                            match values.get(row.metric.name) {
                                Some(v) => row.sets[set].push(*v),
                                None => {
                                    eprintln!(
                                        "{workload} seed {seed}: no {} in the output",
                                        row.metric.name
                                    );
                                    return ExitCode::from(1);
                                }
                            }
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::from(1);
                    }
                }
            }
        }
    }
    let (mut table, ok) = render(&rows, args);
    table.push('\n');
    table.push_str(&render_criteria(&rows, &facts, args.seconds));
    let header = format!(
        "{} sets of {} runs, {} s measured per run, seeds {}..={}, {} hardware threads.\n\n",
        args.sets,
        args.runs,
        args.seconds,
        args.seed,
        args.seed + (args.sets * args.runs) as u64 - 1,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!("\n{header}{table}");
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{header}{table}")) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_lines_parse_back() {
        let out = "lan_rt/latency_p50_us 151.5 us\nlan_rt/requests 130000 count\nnoise\nlan_batch/latency_p50_us 9 us\n{\"correct\": true}\n";
        let values = parse_lines("lan_rt", out);
        assert_eq!(values.get("latency_p50_us"), Some(&151.5));
        assert_eq!(values.get("requests"), Some(&130000.0));
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let thr = &END_TO_END[0];
        let lat = &END_TO_END[1];
        assert!(thr.higher_is_better && !lat.higher_is_better);
        assert!((worsening(thr, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(thr, 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert!((worsening(lat, 100.0, 110.0) - 0.10).abs() < 1e-12);
        let row = Row {
            workload: "lan_rt",
            metric: lat,
            sets: vec![vec![100.0, 102.0, 98.0], vec![109.0, 110.0, 111.0]],
        };
        assert!((row.worst_gap() - 0.10).abs() < 1e-12);
    }

    #[test]
    fn a_row_is_ok_only_when_every_criterion_is_met() {
        let metric = END_TO_END
            .iter()
            .find(|m| m.name == "latency_p50_us")
            .unwrap();
        let row = |sets: Vec<Vec<f64>>| Row {
            workload: "lan_rt",
            metric,
            sets,
        };
        // Tight sets that agree: nothing to report.
        let steady = row(vec![
            vec![100.0, 100.5, 101.0, 100.2],
            vec![100.1, 100.4, 100.9, 100.3],
        ]);
        assert_eq!(steady.unmet(), (vec![], false));
        // One run in eight far out: the quartiles and medians do not
        // notice, the single-run spread does. Reported, not fatal.
        let outlier = row(vec![
            vec![100.0, 100.5, 101.0, 100.2],
            vec![100.1, 100.4, 100.9, 120.0],
        ]);
        let (unmet, fatal) = outlier.unmet();
        assert!(!fatal);
        assert!(unmet.iter().any(|u| u.contains("single-run spread")));
        // Sets whose medians differ by more than the bound: the pipeline
        // would reject the benchmark, so `repeat` fails.
        let worse = 100.0 * (1.0 + metric.bound + 0.01);
        let apart = row(vec![vec![100.0; 4], vec![worse; 4]]);
        assert!(apart.unmet().1);
        assert!((apart.supported_bound() - 2.0 * (metric.bound + 0.01)).abs() < 1e-9);
    }
}
