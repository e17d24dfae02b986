//! # bench
//!
//! The benchmark harness: one binary per table/figure of the paper's
//! evaluation (run with `cargo run -p bench --release --bin fig<N>_...`),
//! plus the two Criterion CI gates over the networked runtime
//! (`cargo bench -p bench --bench runtime_loopback` / `--bench shard_scaling`;
//! per-layer timings live in `benchmark/src/walk.rs`).
//!
//! Every figure binary accepts:
//!
//! * `--quick` — scaled-down parameters (seconds of simulated time, fewer
//!   clients) so the whole harness finishes in minutes;
//! * no flag — the default, moderately sized runs;
//! * `--paper` — the paper's exact parameters (long).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// How large a run the user asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Scaled-down parameters, for smoke runs and CI.
    Quick,
    /// Default parameters: large enough to show the trends clearly.
    Default,
    /// The paper's exact parameters.
    Paper,
}

impl RunScale {
    /// Parses the scale from the process arguments.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            RunScale::Quick
        } else if args.iter().any(|a| a == "--paper") {
            RunScale::Paper
        } else {
            RunScale::Default
        }
    }
}

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Prints a header followed by a separator, returning both lines.
pub fn header(cells: &[&str]) -> String {
    let head = row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    let sep = format!(
        "|{}|",
        cells.iter().map(|_| " --- ").collect::<Vec<_>>().join("|")
    );
    format!("{head}\n{sep}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_helpers_format_markdown() {
        assert_eq!(row(&["a".into(), "b".into()]), "| a | b |");
        let h = header(&["x", "y"]);
        assert!(h.contains("| x | y |"));
        assert!(h.contains("| --- | --- |"));
    }

    #[test]
    fn default_scale_without_flags() {
        assert_eq!(RunScale::from_args(), RunScale::Default);
    }
}
