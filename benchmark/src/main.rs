//! The repository's benchmark: four workloads over a real in-process
//! 3-replica Atlas TCP cluster, end-to-end metrics from an untraced run,
//! per-layer metrics from a traced one. See `README.md` beside this
//! package for the tables and how to read the output.
//!
//! ```text
//! atlas-benchmark [run] --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--trace-out <file>]
//! atlas-benchmark all    [--seed <u64>] [--seconds <n>] [--trace <0|1>]
//! atlas-benchmark repeat [--sets 2] [--runs 5] [--seed <u64>] [--seconds <n>] [--workload <name>] [--out <file>]
//! atlas-benchmark list
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod affinity;
mod contract;
mod harness;
mod loadgen;
mod repeat;
mod stats;
mod trace;
mod walk;
mod workload;

use harness::{RunOptions, RunReport};
use std::path::PathBuf;
use std::process::ExitCode;

/// Counts every heap allocation of the process (replicas, generator and
/// harness alike) for `proc.allocs_per_op`.
#[global_allocator]
static ALLOC: atlas_metrics::CountingAllocator = atlas_metrics::CountingAllocator;

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    command: String,
    pub(crate) workload: Option<String>,
    pub(crate) seed: u64,
    pub(crate) seconds: u64,
    pub(crate) trace: bool,
    trace_out: Option<PathBuf>,
    pub(crate) sets: usize,
    pub(crate) runs: usize,
    pub(crate) out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: 1,
        seconds: contract::RUN_SECONDS,
        trace: false,
        trace_out: None,
        sets: 2,
        runs: 5,
        out: None,
    };
    let mut first = true;
    while let Some(arg) = argv.next() {
        if first && !arg.starts_with("--") {
            args.command = arg;
            first = false;
            continue;
        }
        first = false;
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg}: {v:?} is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--sets" => args.sets = number(value()?)? as usize,
            "--runs" => args.runs = number(value()?)? as usize,
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=120).contains(&args.seconds) {
        return Err("--seconds must be between 1 and 120".into());
    }
    Ok(args)
}

/// Directory next to the executable: run outputs (replica data, traces)
/// stay inside the build directory, which sits inside the checkout.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("atlas-benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("atlas-benchmark-out"))
}

/// Formats a float with all its digits (and nothing JSON cannot hold).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Prints the human-readable lines and, last, the one-line JSON object.
fn print_report(report: &RunReport) {
    let w = report.workload;
    for metric in &report.metrics {
        println!(
            "{w}/{} {} {}",
            metric.name,
            number(metric.value),
            metric.unit
        );
    }
    let share = report.failed as f64 / report.requests.max(1) as f64;
    println!("{w}/requests {} count", report.requests);
    println!("{w}/failed {} count", report.failed);
    println!("{w}/failed_share {} ratio", number(share));
    println!(
        "{w}/latency_samples {} count ({} beyond p99)",
        report.samples, report.beyond_p99
    );
    println!("{w}/gen_late_p99_us {} us", number(report.gen_late_p99_us));
    if let Some((p, value)) = report.tail {
        println!(
            "{w}/latency_highest_supported p{} {} us",
            p * 100.0,
            number(value)
        );
    }
    for problem in &report.problems {
        println!("{w}/PROBLEM {problem}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.requests.max(1),
        report.failed,
        metrics.join(", ")
    );
}

fn run_one(args: &Args) -> ExitCode {
    let Some(name) = &args.workload else {
        eprintln!("run needs --workload <name>; `list` prints the names");
        return ExitCode::from(2);
    };
    let Some(spec) = workload::find(name) else {
        eprintln!("unknown workload {name:?}; `list` prints the names");
        return ExitCode::from(2);
    };
    let trace_out = args
        .trace_out
        .clone()
        .unwrap_or_else(|| scratch_dir().join(format!("trace-{name}.json")));
    // Still the only thread: children inherit the mask. (`all` and
    // `repeat` never get here; their child processes pin themselves.)
    if spec.one_core && affinity::pin_to_one_core().is_none() {
        eprintln!("could not pin to one core; expect noisier numbers");
    }
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        trace_out,
    };
    match harness::run(spec, &opts) {
        Ok(report) => {
            if args.trace {
                eprintln!("spans written to {}", opts.trace_out.display());
            }
            print_report(&report);
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{name}: run failed: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists and before the vendored runtime boots: two
    // workers instead of the runtime's four, whatever the environment says
    // (every number this harness reports depends on it), and replica data
    // beside the build instead of in the system's /tmp.
    std::env::set_var("TOKIO_WORKER_THREADS", "2");
    let tmp = scratch_dir().join("tmp");
    if std::fs::create_dir_all(&tmp).is_ok() {
        std::env::set_var("TMPDIR", &tmp);
    }
    match args.command.as_str() {
        "run" => run_one(&args),
        "all" => repeat::all(&args),
        "repeat" => repeat::repeat(&args),
        "list" => {
            for w in &workload::WORKLOADS {
                println!("{}\t{}", w.name, w.why);
            }
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command {other:?}: run, all, repeat or list");
            ExitCode::from(2)
        }
    }
}
