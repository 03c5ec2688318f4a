//! Span analysis for the traced run: executor busy time, queue waits,
//! tail idle time, and self time per span name.
//!
//! Spans come from the tracer the engine and server already record
//! with (`exec.wait`, `exec.run`, `http.request`, pipeline stages):
//! in-process via [`dsp_trace::Tracer::snapshot`], or from a server's
//! `GET /debug/trace` document.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use dsp_driver::json::{self, Value};
use dsp_trace::{FinishedSpan, Tracer};

use crate::stats::quantile;
use crate::Layers;

/// One finished span, reduced to what the analysis needs.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Trace (request or matrix) ID.
    pub trace: u64,
    /// This span's ID.
    pub span: u64,
    /// Parent span ID (0 for roots).
    pub parent: u64,
    /// Span name.
    pub name: String,
    /// Recording thread.
    pub tid: u64,
    /// Start, microseconds from the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// The executor's queue class (`exec.wait` / `exec.run` only).
    pub class: Option<String>,
}

impl SpanRec {
    /// End, microseconds from the tracer's epoch.
    #[must_use]
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

impl From<&FinishedSpan> for SpanRec {
    fn from(s: &FinishedSpan) -> SpanRec {
        SpanRec {
            trace: s.trace,
            span: s.span,
            parent: s.parent,
            name: s.name.to_string(),
            tid: s.tid,
            start_us: s.start_us,
            dur_us: s.dur_us,
            class: s
                .attrs
                .iter()
                .find(|(k, _)| *k == "class")
                .map(|(_, v)| v.clone()),
        }
    }
}

/// Parse a `dualbank-trace/v1` document (`GET /debug/trace`).
///
/// # Errors
///
/// Describes the first structural problem.
pub fn parse_trace_doc(text: &str) -> Result<Vec<SpanRec>, String> {
    let doc = json::parse(text).map_err(|e| format!("trace document is not JSON: {e}"))?;
    let spans = doc
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("trace document has no `spans` array")?;
    let hex = |v: Option<&Value>| -> u64 {
        v.and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .unwrap_or(0)
    };
    let num = |v: Option<&Value>, key: &str| -> Result<u64, String> {
        v.and_then(Value::as_u64)
            .ok_or_else(|| format!("span without a numeric `{key}`"))
    };
    spans
        .iter()
        .map(|s| {
            Ok(SpanRec {
                trace: hex(s.get("trace")),
                span: hex(s.get("span")),
                parent: hex(s.get("parent")),
                name: s
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span without a `name`")?
                    .to_string(),
                tid: num(s.get("tid"), "tid")?,
                start_us: num(s.get("start_us"), "start_us")?,
                dur_us: num(s.get("dur_us"), "dur_us")?,
                class: s
                    .get("args")
                    .and_then(|a| a.get("class"))
                    .and_then(Value::as_str)
                    .map(str::to_string),
            })
        })
        .collect()
}

/// The spans of trace `trace` once its `cells` `exec.run` spans landed
/// (workers record them just after the job handle resolves), and the
/// batch marker's window.
pub fn collect_spans(tracer: &Tracer, trace: u64, cells: usize) -> (Vec<SpanRec>, (u64, u64)) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let spans: Vec<SpanRec> = tracer
            .snapshot(usize::MAX)
            .iter()
            .filter(|s| s.trace == trace)
            .map(SpanRec::from)
            .collect();
        let runs = spans.iter().filter(|s| s.name == "exec.run").count();
        if runs >= cells || Instant::now() >= deadline {
            let window = spans
                .iter()
                .find(|s| s.name == "bench.batch")
                .map_or((0, 0), |s| (s.start_us, s.end_us()));
            return (spans, window);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Self time of every span named `name`: its duration minus the part
/// of its interval that its direct children cover.
#[must_use]
pub fn self_times_us(spans: &[SpanRec], name: &str) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us()));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.get(&s.span).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (lo, hi) = (s.start_us, s.end_us());
            let mut covered = 0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us.saturating_sub(covered)
        })
        .collect()
}

/// Executor figures accumulated over one or more windows (a matrix,
/// a campaign, a request round).
#[derive(Debug, Default)]
pub struct ExecSample {
    waits_ms: BTreeMap<String, Vec<f64>>,
    run_us: u64,
    capacity_us: u64,
    tail_us: u64,
}

impl ExecSample {
    /// Add the executor spans of one window `[start_us, end_us]` run
    /// by `workers` executor threads.
    pub fn add_window(&mut self, spans: &[SpanRec], start_us: u64, end_us: u64, workers: usize) {
        for s in spans.iter().filter(|s| s.name == "exec.wait") {
            let class = s.class.clone().unwrap_or_default();
            self.waits_ms
                .entry(class)
                .or_default()
                .push(s.dur_us as f64 / 1e3);
        }
        let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == "exec.run") {
            self.run_us += s.dur_us;
            let end = last_end.entry(s.tid).or_insert(start_us);
            *end = (*end).max(s.end_us());
        }
        self.capacity_us += end_us.saturating_sub(start_us) * workers as u64;
        // Workers that ran nothing in the window went idle at its start.
        let mut ends: Vec<u64> = last_end.into_values().collect();
        ends.resize(ends.len().max(workers), start_us);
        ends.sort_unstable_by(|a, b| b.cmp(a));
        if ends.len() >= 2 {
            self.tail_us += ends[0] - ends[1];
        }
    }

    /// Write the `exec.*` per-layer metrics.
    pub fn write(&self, layers: &mut Layers) {
        for class in ["batch", "interactive"] {
            let waits = self.waits_ms.get(class).map_or(&[][..], Vec::as_slice);
            let (p50, p99) = match class {
                "batch" => ("exec.wait_ms.batch.p50", "exec.wait_ms.batch.p99"),
                _ => (
                    "exec.wait_ms.interactive.p50",
                    "exec.wait_ms.interactive.p99",
                ),
            };
            layers.insert(p50, quantile(waits, 0.50));
            layers.insert(p99, quantile(waits, 0.99));
        }
        let busy = if self.capacity_us == 0 {
            0.0
        } else {
            self.run_us as f64 / self.capacity_us as f64
        };
        layers.insert("exec.busy_frac", busy);
        layers.insert("exec.tail_ms", self.tail_us as f64 / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span: u64, parent: u64, name: &str, tid: u64, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            trace: 1,
            span,
            parent,
            name: name.to_string(),
            tid,
            start_us: start,
            dur_us: dur,
            class: Some("batch".to_string()),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "http.request", 1, 0, 100),
            span(2, 1, "exec.wait", 2, 10, 20),
            span(3, 1, "exec.run", 2, 30, 50),
            // Overlaps exec.run: counted once.
            span(4, 1, "cell", 2, 35, 40),
        ];
        assert_eq!(self_times_us(&spans, "http.request"), vec![30]);
    }

    #[test]
    fn tail_is_time_after_the_second_to_last_worker_went_idle() {
        let spans = vec![
            span(1, 0, "exec.run", 1, 0, 40),
            span(2, 0, "exec.run", 2, 0, 100),
        ];
        let mut sample = ExecSample::default();
        sample.add_window(&spans, 0, 100, 2);
        let mut layers = Layers::new();
        sample.write(&mut layers);
        assert_eq!(layers["exec.tail_ms"], 0.06);
        assert_eq!(layers["exec.busy_frac"], 0.7);
        // A worker that ran nothing idles for the whole window.
        let mut sample = ExecSample::default();
        sample.add_window(&spans[1..], 0, 100, 2);
        let mut layers = Layers::new();
        sample.write(&mut layers);
        assert_eq!(layers["exec.tail_ms"], 0.1);
    }
}
