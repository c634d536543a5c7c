//! Benchmark-owned spans around each layer call, their Perfetto export,
//! and the per-layer self-time table derived from them.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover; a repetition's self time is the part
//! of the rep no layer span accounts for (`budget.residual_share`).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::metrics::Metric;
use qtaccel_telemetry::json::Json;
use qtaccel_telemetry::{ActiveSpan, Span, SpanId, SpanTracer, TraceId};

/// Completed spans the ring keeps; a traced run records a few thousand.
const CAPACITY: usize = 1 << 17;

/// The root span every repetition records, whatever the workload.
pub const REP: &str = "rep";

/// The run's span recorder. With tracing off every call is a no-op, so
/// untraced runs time layers through the same code.
pub struct Spans {
    tracer: Option<(SpanTracer, TraceId)>,
}

impl Spans {
    pub fn new(on: bool, seed: u64) -> Self {
        Self {
            tracer: on.then(|| {
                let tracer = SpanTracer::new(seed, CAPACITY);
                let trace = tracer.start_trace();
                (tracer, trace)
            }),
        }
    }

    pub fn begin(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        lane: u32,
        ordinal: u64,
    ) -> Option<ActiveSpan> {
        self.tracer
            .as_ref()
            .map(|(t, trace)| t.begin(*trace, parent, name, lane, ordinal))
    }

    pub fn end(&self, span: Option<ActiveSpan>) {
        if let (Some((t, _)), Some(s)) = (&self.tracer, span) {
            t.end(s);
        }
    }

    /// Run `f` inside a span named `name`; returns its result and its
    /// wall-clock seconds (measured whether or not tracing is on).
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        ordinal: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.begin(name, parent, 0, ordinal);
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        self.end(span);
        (out, secs)
    }

    /// Record a span whose interval was observed rather than wrapped
    /// (the cluster's lease phases, read off the coordinator's status).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        lane: u32,
        ordinal: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        let (t, trace) = self.tracer.as_ref()?;
        let id = SpanId::derive(*trace, parent, name, lane, ordinal);
        t.record(Span {
            trace: *trace,
            id,
            parent,
            name: name.to_string(),
            lane,
            ordinal,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some(id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.tracer
            .as_ref()
            .map_or_else(Vec::new, |(t, _)| t.snapshot())
    }

    pub fn dropped(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |(t, _)| t.dropped_spans())
    }
}

/// Self time of every span, keyed by id.
fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Share of all [`REP`] span time that no child span covers.
pub fn residual_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == REP) {
        own += selfs[&s.id];
        total += s.duration_ns();
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// Share of throughput lost to tracing: traced against untraced
/// repetitions of the same run, interleaved so host drift hits both, each
/// side read at its fastest rep like `samples_per_s`.
pub fn overhead_share(untraced: &[f64], traced: &[f64]) -> f64 {
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    if untraced.is_empty() || traced.is_empty() {
        return 0.0;
    }
    1.0 - fastest(untraced) / fastest(traced)
}

/// The spans as a Chrome/Perfetto trace-event document: one thread track
/// per lane, timestamps in microseconds.
pub fn perfetto(spans: &[Span], process: &str) -> Json {
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let meta = |name: &str, tid: u32, value: String| {
        Json::Obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u64::from(tid))),
            ("name", Json::Str(name.into())),
            ("args", Json::Obj(vec![("name", Json::Str(value))])),
        ])
    };
    let mut events = vec![meta("process_name", 0, format!("qtbench {process}"))];
    events.extend(
        lanes
            .iter()
            .map(|&l| meta("thread_name", l, format!("lane-{l}"))),
    );
    let mut ordered: Vec<&Span> = spans.iter().collect();
    ordered.sort_by_key(|s| (s.lane, s.start_ns, std::cmp::Reverse(s.end_ns)));
    events.extend(ordered.into_iter().map(|s| {
        Json::Obj(vec![
            ("ph", Json::Str("X".into())),
            ("name", Json::Str(s.name.clone())),
            ("cat", Json::Str("qtbench".into())),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u64::from(s.lane))),
            ("ts", Json::Num(s.start_ns as f64 / 1e3)),
            ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
            (
                "args",
                Json::Obj(vec![
                    ("span", Json::UInt(s.id.0)),
                    ("parent", Json::UInt(s.parent.map_or(0, |p| p.0))),
                    ("ordinal", Json::UInt(s.ordinal)),
                ]),
            ),
        ])
    }));
    Json::Obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// The per-layer self-time table: one row per span name, then the run's
/// per-layer metrics.
pub fn table(
    workload: &str,
    seed: u64,
    spans: &[Span],
    dropped: u64,
    metrics: &[Metric],
) -> String {
    let selfs = self_times(spans);
    let mut rows: Vec<(&str, u64, u64, u64)> = Vec::new();
    for s in spans {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += selfs[&s.id];
            }
            None => rows.push((&s.name, 1, s.duration_ns(), selfs[&s.id])),
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.3));
    let all_self: u64 = rows.iter().map(|r| r.3).sum::<u64>().max(1);
    let mut out = format!(
        "# qtbench per-layer self time: {workload}, seed {seed}, {} spans ({dropped} dropped)\n\
         {:<28} {:>7} {:>12} {:>12} {:>10}\n",
        spans.len(),
        "span",
        "count",
        "total_ms",
        "self_ms",
        "self_share"
    );
    for (name, count, total, own) in rows {
        let _ = writeln!(
            out,
            "{name:<28} {count:>7} {:>12.3} {:>12.3} {:>10.4}",
            total as f64 / 1e6,
            own as f64 / 1e6,
            own as f64 / all_self as f64
        );
    }
    out.push_str("# per-layer metrics\n");
    for m in metrics {
        let _ = writeln!(out, "{} {} {}", m.def.name, m.value, m.def.unit);
    }
    out
}

/// Write `trace-<workload>.json` and `layers-<workload>.txt` under `out`.
pub fn write(
    out: &Path,
    workload: &str,
    seed: u64,
    spans: &Spans,
    metrics: &[Metric],
) -> Result<(), String> {
    let all = spans.spans();
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let files = [
        (
            format!("trace-{workload}.json"),
            perfetto(&all, workload).compact(),
        ),
        (
            format!("layers-{workload}.txt"),
            table(workload, seed, &all, spans.dropped(), metrics),
        ),
    ];
    for (name, body) in files {
        let path = out.join(name);
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = Spans::new(true, 7);
        let rep = spans.record(REP, None, 0, 0, 100, 200);
        // Two overlapping children cover [110, 160); one pokes past the end.
        spans.record("train", rep, 0, 0, 110, 150);
        spans.record("train", rep, 1, 0, 120, 160);
        spans.record("check", rep, 0, 0, 190, 250);
        let all = spans.spans();
        let selfs = self_times(&all);
        let rep_id = rep.expect("tracing on");
        assert_eq!(selfs[&rep_id], 100 - 50 - 10);
        assert!((residual_share(&all) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn perfetto_document_round_trips_through_the_parser() {
        let spans = Spans::new(true, 1);
        let rep = spans.record(REP, None, 0, 3, 1_000, 9_000);
        spans.record("lease", rep, 2, 3, 2_000, 5_000);
        let doc = perfetto(&spans.spans(), "unit").compact();
        let parsed = qtaccel_telemetry::json::parse(&doc).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 2);
        for e in complete {
            assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
            assert!(e.get("dur").and_then(|t| t.as_f64()).is_some());
        }
    }
}
