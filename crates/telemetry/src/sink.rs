//! Merging per-slot shards into a [`Summary`] and rendering the JSONL and
//! Chrome `trace_event` outputs.

use std::io::Write;
use std::sync::atomic::Ordering;

use crate::hist::{Histogram, HIST_BUCKETS};
use crate::{Event, Metric, Shard, SpanId, NUM_METRICS, NUM_SPANS};

/// Aggregated timing of one span id across all threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Which span.
    pub id: SpanId,
    /// Completed (or instant) occurrences.
    pub count: u64,
    /// Total nanoseconds inside the span, summed over occurrences and
    /// threads (nested/parallel spans overlap, so totals can exceed
    /// wall-clock).
    pub total_ns: u64,
}

/// Aggregated observations of one metric across all threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricStat {
    /// Which metric.
    pub metric: Metric,
    /// Merged log2-bucket histogram with exact count/sum.
    pub hist: Histogram,
}

/// The merged view of everything recorded so far: what the summary sink
/// prints and what `opt`'s `RunReport` embeds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Summary {
    /// Per-span aggregates, declaration order, zero rows omitted.
    pub spans: Vec<SpanStat>,
    /// Per-metric aggregates, declaration order, zero rows omitted.
    pub metrics: Vec<MetricStat>,
    /// Deepest span nesting observed on any thread.
    pub max_depth: u64,
    /// Span events currently buffered for the JSONL/Chrome sinks.
    pub events: u64,
    /// Events dropped because a shard's buffer hit its cap.
    pub dropped: u64,
}

impl Summary {
    /// Occurrences of one span (0 if never opened).
    pub fn span_count(&self, id: SpanId) -> u64 {
        self.spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.count)
            .unwrap_or(0)
    }

    /// Total nanoseconds inside one span (0 if never opened).
    pub fn span_ns(&self, id: SpanId) -> u64 {
        self.spans
            .iter()
            .find(|s| s.id == id)
            .map(|s| s.total_ns)
            .unwrap_or(0)
    }

    /// Merged histogram of one metric (empty if never recorded).
    pub fn metric(&self, m: Metric) -> Histogram {
        self.metrics
            .iter()
            .find(|s| s.metric == m)
            .map(|s| s.hist)
            .unwrap_or_default()
    }
}

/// Merges every shard's atomics into one [`Summary`].
pub(crate) fn merge_shards(shards: &[Shard]) -> Summary {
    let mut span_count = [0u64; NUM_SPANS];
    let mut span_ns = [0u64; NUM_SPANS];
    let mut hists = [Histogram::new(); NUM_METRICS];
    let mut max_depth = 0u64;
    let mut events = 0u64;
    let mut dropped = 0u64;
    for sh in shards {
        for i in 0..NUM_SPANS {
            span_count[i] += sh.span_count[i].load(Ordering::Relaxed);
            span_ns[i] += sh.span_ns[i].load(Ordering::Relaxed);
        }
        for i in 0..NUM_METRICS {
            let mut h = Histogram::new();
            h.count = sh.metric_count[i].load(Ordering::Relaxed);
            h.sum = sh.metric_sum[i].load(Ordering::Relaxed);
            for b in 0..HIST_BUCKETS {
                h.buckets[b] = sh.metric_hist[i][b].load(Ordering::Relaxed);
            }
            hists[i].merge(&h);
        }
        max_depth = max_depth.max(sh.max_depth.load(Ordering::Relaxed));
        dropped += sh.dropped.load(Ordering::Relaxed);
        events += sh.events.lock().unwrap_or_else(|e| e.into_inner()).len() as u64;
    }
    Summary {
        spans: SpanId::ALL
            .iter()
            .filter(|&&id| span_count[id as usize] > 0)
            .map(|&id| SpanStat {
                id,
                count: span_count[id as usize],
                total_ns: span_ns[id as usize],
            })
            .collect(),
        metrics: Metric::ALL
            .iter()
            .filter(|&&m| !hists[m as usize].is_empty())
            .map(|&m| MetricStat {
                metric: m,
                hist: hists[m as usize],
            })
            .collect(),
        max_depth,
        events,
        dropped,
    }
}

/// Renders nanoseconds with a unit that keeps 3–4 significant digits.
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "telemetry: max span depth {}, {} events buffered ({} dropped)",
            self.max_depth, self.events, self.dropped
        )?;
        if !self.spans.is_empty() {
            writeln!(
                f,
                "  {:<14} {:>10} {:>12} {:>12}",
                "span", "count", "total", "mean"
            )?;
            for s in &self.spans {
                let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
                writeln!(
                    f,
                    "  {:<14} {:>10} {:>12} {:>12}",
                    s.id.label(),
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(mean)
                )?;
            }
        }
        if !self.metrics.is_empty() {
            writeln!(
                f,
                "  {:<18} {:>10} {:>16} {:>12} {:>10}",
                "metric", "count", "sum", "mean", "max>="
            )?;
            for m in &self.metrics {
                writeln!(
                    f,
                    "  {:<18} {:>10} {:>16} {:>12.1} {:>10}",
                    m.metric.label(),
                    m.hist.count,
                    m.hist.sum,
                    m.hist.mean(),
                    m.hist.max_floor()
                )?;
            }
        }
        Ok(())
    }
}

/// Opens `path` for writing, or falls back to stderr when `None`.
fn open_out(path: Option<&str>) -> std::io::Result<Box<dyn Write>> {
    Ok(match path {
        Some(p) => Box::new(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => Box::new(std::io::BufWriter::new(std::io::stderr())),
    })
}

/// Writes the JSONL event stream: one object per span event, then one per
/// non-empty metric, then a trailing meta object. A consumer can check
/// trace health by parsing every line and balancing `B` against `E`
/// counts per `(tid, span)` — the CI schema job does exactly that.
pub(crate) fn write_jsonl(
    path: Option<&str>,
    events: &[Event],
    summary: &Summary,
) -> std::io::Result<()> {
    let mut out = open_out(path)?;
    for e in events {
        write!(
            out,
            "{{\"ev\":\"{}\",\"span\":\"{}\",\"tid\":{},\"ts_ns\":{}",
            e.ph as char,
            e.id.label(),
            e.tid,
            e.ts_ns
        )?;
        if e.arg != u64::MAX {
            write!(out, ",\"arg\":{}", e.arg)?;
        }
        writeln!(out, "}}")?;
    }
    for m in &summary.metrics {
        writeln!(
            out,
            "{{\"metric\":\"{}\",\"count\":{},\"sum\":{}}}",
            m.metric.label(),
            m.hist.count,
            m.hist.sum
        )?;
    }
    writeln!(
        out,
        "{{\"meta\":\"dnnopt-trace\",\"events\":{},\"dropped\":{},\"max_depth\":{}}}",
        events.len(),
        summary.dropped,
        summary.max_depth
    )?;
    out.flush()
}

/// Writes Chrome `trace_event` JSON (the "JSON array format"): load the
/// file in `chrome://tracing` or <https://ui.perfetto.dev>. Timestamps are
/// microseconds; the worker slot becomes the `tid`, so grid workers get
/// their own rows in the viewer.
pub(crate) fn write_chrome(path: &str, events: &[Event], summary: &Summary) -> std::io::Result<()> {
    let mut out = open_out(Some(path))?;
    writeln!(out, "[")?;
    let mut first = true;
    for e in events {
        if !first {
            writeln!(out, ",")?;
        }
        first = false;
        let us = e.ts_ns as f64 / 1e3;
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{us:.3}",
            e.id.label(),
            e.ph as char,
            e.tid
        )?;
        if e.ph == b'I' {
            write!(out, ",\"s\":\"t\"")?;
        }
        if e.arg != u64::MAX {
            write!(out, ",\"args\":{{\"arg\":{}}}", e.arg)?;
        }
        write!(out, "}}")?;
    }
    // Trailing metadata event keeps the array well-formed without
    // tracking a dangling comma, and records drop accounting in-band.
    if !first {
        writeln!(out, ",")?;
    }
    writeln!(
        out,
        "{{\"name\":\"dnnopt-trace\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"dropped\":{},\"max_depth\":{}}}}}",
        summary.dropped, summary.max_depth
    )?;
    writeln!(out, "]")?;
    out.flush()
}
