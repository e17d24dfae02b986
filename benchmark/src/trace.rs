//! In-memory span recorder of a traced run, written out as JSON when the
//! run ends.
//!
//! Spans are recorded from the benchmark's own files, around its calls
//! into each layer: one per client request of a traced slice (the request
//! identifier is the first command sequence, shared with the replica-side
//! lifecycle counters), one per slice as their parent, and one per chunk
//! of calls of the isolated layer walk. Spans inside the replicas are a
//! later change.

use crate::loadgen::{RequestSpan, TRACE_SLICE};
use crate::stats::{ProcSample, StatsDelta};
use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Identifier, unique within the trace.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// `layer.operation`.
    pub name: String,
    /// Request (first command sequence) or first command index the span
    /// belongs to; spans of one request share it.
    pub request: u64,
    /// Start, ns since the trace's origin.
    pub start_ns: u64,
    /// End, ns since the trace's origin.
    pub end_ns: u64,
    /// Calls into the layer the span covers (1 for a request).
    pub calls: u64,
    /// For a request: when its frame was written (between start and end).
    pub sent_ns: Option<u64>,
    /// For a request: false if it was given up.
    pub ok: bool,
}

/// The trace of one run.
#[derive(Debug)]
pub struct Trace {
    workload: &'static str,
    seed: u64,
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<(String, Vec<(&'static str, f64)>)>,
}

impl Trace {
    /// An empty trace; walk spans are timed against its creation.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn push(&mut self, mut span: Span) -> u64 {
        span.id = self.spans.len() as u64 + 1;
        self.spans.push(span);
        self.spans.len() as u64
    }

    /// Opens a root span for one layer of the walk and returns its id.
    pub fn open(&mut self, name: &str) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.push(Span {
            id: 0,
            parent: None,
            name: name.to_string(),
            request: 0,
            start_ns: now,
            end_ns: now,
            calls: 0,
            sent_ns: None,
            ok: true,
        })
    }

    /// Closes a span opened with [`Trace::open`].
    pub fn close(&mut self, id: u64) {
        self.spans[id as usize - 1].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one child span of `parent` covering `calls` calls,
    /// the first of them on command `first`.
    pub fn time<T>(
        &mut self,
        parent: u64,
        name: &str,
        first: u64,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.push(Span {
            id: 0,
            parent: Some(parent),
            name: name.to_string(),
            request: first,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            calls,
            sent_ns: None,
            ok: true,
        });
        out
    }

    /// Total self time (span minus the part its children cover) and total
    /// calls of the spans called `name`.
    pub fn self_time(&self, name: &str) -> (u64, u64) {
        let mut total = 0u64;
        let mut calls = 0u64;
        for span in self.spans.iter().filter(|s| s.name == name) {
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(span.id))
                .map(|c| {
                    c.end_ns
                        .min(span.end_ns)
                        .saturating_sub(c.start_ns.max(span.start_ns))
                })
                .sum();
            total += (span.end_ns - span.start_ns).saturating_sub(children);
            calls += span.calls;
        }
        (total, calls)
    }

    /// Mean self time per call of the spans called `name`, ns.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        match self.self_time(name) {
            (_, 0) => 0.0,
            (ns, calls) => ns as f64 / calls as f64,
        }
    }

    /// Adds the request spans of the traced slices, each under the span of
    /// its schedule slice. Their clock is the generator's origin, not the
    /// walk's; the JSON says so.
    pub fn add_requests(&mut self, requests: &[RequestSpan]) {
        let slice_ns = TRACE_SLICE.as_nanos() as u64;
        let mut slices: Vec<(u64, u64)> = Vec::new(); // (slice start, span id)
        for r in requests {
            let slice_start = r.due_ns / slice_ns * slice_ns;
            let parent = match slices.iter().find(|(start, _)| *start == slice_start) {
                Some((_, id)) => *id,
                None => {
                    let id = self.push(Span {
                        id: 0,
                        parent: None,
                        name: "schedule.slice".into(),
                        request: 0,
                        start_ns: slice_start,
                        end_ns: slice_start + slice_ns,
                        calls: 0,
                        sent_ns: None,
                        ok: true,
                    });
                    slices.push((slice_start, id));
                    id
                }
            };
            let end = r
                .done_ns
                .unwrap_or(r.due_ns + crate::loadgen::GIVE_UP.as_nanos() as u64);
            self.push(Span {
                id: 0,
                parent: Some(parent),
                name: "client.request".into(),
                request: r.first_seq | (r.conn as u64) << 56,
                start_ns: r.due_ns,
                end_ns: end,
                calls: r.cmds as u64,
                sent_ns: Some(r.sent_ns),
                ok: r.done_ns.is_some(),
            });
        }
    }

    /// Records the stats-plane deltas over the measured interval.
    pub fn add_counters(&mut self, group: &str, d: &StatsDelta) {
        let [journaled, proposed, committed, executed, replied] = d.cumulative_us;
        self.counters.push((
            group.to_string(),
            vec![
                ("submit_to_journaled_mean_us", journaled),
                ("submit_to_proposed_mean_us", proposed),
                ("submit_to_committed_mean_us", committed),
                ("submit_to_executed_mean_us", executed),
                ("submit_to_replied_mean_us", replied),
                ("replied", d.replied as f64),
                ("store_executed", d.store_executed as f64),
                ("fast_paths", d.fast_paths as f64),
                ("slow_paths", d.slow_paths as f64),
                ("recoveries", d.recoveries as f64),
                ("noops", d.noops as f64),
                ("journal_records", d.journal_records as f64),
                ("fsyncs", d.fsyncs as f64),
                ("fsync_total_us", d.fsync_total_us),
                ("snapshots", d.snapshots as f64),
                ("gc_rounds", d.gc_rounds as f64),
                ("gc_dropped", d.gc_dropped as f64),
                ("resent_frames", d.resent_frames as f64),
                ("dropped_frames", d.dropped_frames as f64),
                ("suspicions", d.suspicions as f64),
                ("takeovers", d.takeovers as f64),
            ],
        ));
    }

    /// Records the `/proc` counters at both ends of the measured interval.
    pub fn add_proc(&mut self, start: &ProcSample, end: &ProcSample) {
        for (group, p) in [("proc_start", start), ("proc_end", end)] {
            self.counters.push((
                group.to_string(),
                vec![
                    ("utime_ticks", p.utime_ticks as f64),
                    ("stime_ticks", p.stime_ticks as f64),
                    ("syscr", p.syscr as f64),
                    ("syscw", p.syscw as f64),
                    ("io_bytes", p.io_bytes as f64),
                    ("ctx_switches", p.ctx_switches as f64),
                    ("allocs", p.allocs as f64),
                    ("rss_peak_kb", p.rss_peak_kb as f64),
                ],
            ));
        }
    }

    /// Renders the trace as JSON.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(128 * self.spans.len() + 4096);
        let _ = write!(
            o,
            "{{\"workload\":\"{}\",\"seed\":{},\"clocks\":\"client.* and schedule.* spans: ns since the generator's origin; all other spans: ns since the layer walk began\",\"counters\":{{",
            self.workload, self.seed
        );
        for (i, (group, values)) in self.counters.iter().enumerate() {
            let _ = write!(o, "{}\"{group}\":{{", if i > 0 { "," } else { "" });
            for (j, (name, value)) in values.iter().enumerate() {
                let _ = write!(o, "{}\"{name}\":{value}", if j > 0 { "," } else { "" });
            }
            o.push('}');
        }
        o.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                o,
                "{}{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"calls\":{}",
                if i > 0 { ",\n" } else { "" },
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                s.calls
            );
            if let Some(sent) = s.sent_ns {
                let _ = write!(o, ",\"sent_ns\":{sent},\"ok\":{}", s.ok);
            }
            o.push('}');
        }
        o.push_str("\n]}\n");
        o
    }

    /// Writes the trace to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.to_json().as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64, calls: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            request: 0,
            start_ns: start,
            end_ns: end,
            calls,
            sent_ns: None,
            ok: true,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Trace::new("lan_rt", 1);
        t.spans = vec![
            span(1, None, "walk.layer", 0, 1_000, 0),
            span(2, Some(1), "layer.op", 100, 400, 10),
            span(3, Some(1), "layer.op", 500, 900, 10),
            // A child that overruns its parent only counts inside it.
            span(4, Some(1), "other.op", 950, 1_200, 1),
        ];
        assert_eq!(t.self_time("walk.layer"), (1_000 - 300 - 400 - 50, 0));
        assert_eq!(t.self_time("layer.op"), (700, 20));
        assert_eq!(t.ns_per_call("layer.op"), 35.0);
        assert_eq!(t.ns_per_call("missing"), 0.0);
    }

    #[test]
    fn requests_hang_under_their_slice_and_render_as_json() {
        let mut t = Trace::new("geo3_crash", 9);
        let second = TRACE_SLICE.as_nanos() as u64;
        t.add_requests(&[
            RequestSpan {
                conn: 0,
                first_seq: 7,
                cmds: 1,
                due_ns: second + 5,
                sent_ns: second + 9,
                done_ns: Some(second + 900),
            },
            RequestSpan {
                conn: 1,
                first_seq: 8,
                cmds: 16,
                due_ns: second + 50,
                sent_ns: second + 51,
                done_ns: None,
            },
        ]);
        assert_eq!(t.spans.len(), 3, "one slice span, two request spans");
        assert_eq!(t.spans[0].name, "schedule.slice");
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(t.spans[0].id)));
        assert!(!t.spans[2].ok);
        let json = t.to_json();
        assert!(json.contains("\"name\":\"client.request\""));
        assert!(json.contains("\"sent_ns\":"));
        assert!(json.contains("\"ok\":false"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
