//! Exporters: OpenMetrics scrape endpoint, Perfetto trace conversion and
//! the text waveform.
//!
//! The ways out of the process for the metrics the rest of this crate
//! collects, all dependency-free:
//!
//! * **OpenMetrics / Prometheus text format.** [`encode_openmetrics`]
//!   renders a [`MetricsRegistry`] snapshot. The one HTTP endpoint that
//!   serves it is the [`Collector`](crate::Collector): a process with
//!   no upstream workers binds one (`Collector::serve("127.0.0.1:0")`
//!   takes an ephemeral port) and publishes its own registry through
//!   `Collector::update`, so a `curl` or a Prometheus scraper reads live
//!   counters, gauges and latency histograms. [`scrape`] is the client
//!   half, and [`check_openmetrics`] is the strict validator the smoke
//!   tests run against every scrape.
//! * **Chrome trace-event JSON (Perfetto-loadable).** [`chrome_trace`]
//!   converts the typed [`Event`]s a [`RingSink`](crate::RingSink) kept
//!   into per-pipeline tracks with stall/commit spans and hazard/forward
//!   instants. Load the output at <https://ui.perfetto.dev> (one
//!   simulation cycle is rendered as one microsecond).
//! * **Text waveform.** [`waveform`] draws the same events' stage
//!   occupancy as the classic pipeline diagram, and [`stage_occupancy`]
//!   sums one of its rows.
//!
//! DESIGN.md §2.10 documents the endpoint lifecycle and the OpenMetrics
//! and trace formats; §2.6 shows a waveform.

use crate::event::{Event, MemKind};
use crate::histogram::{MetricValue, MetricsRegistry};
use crate::json::Json;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Render a float the OpenMetrics way (plain decimal; integral values
/// drop the fraction).
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v.trunc() as i64)
    } else {
        format!("{v}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Encode a registry snapshot as OpenMetrics text (Prometheus
/// exposition format, `# EOF`-terminated).
///
/// Counters registered as `<family>_total` emit a `counter` family named
/// `<family>`; histograms emit cumulative `_bucket{le="..."}` samples
/// (occupied prefix plus `+Inf`), `_sum`, `_count`, and three companion
/// gauges `<name>_p50` / `<name>_p90` / `<name>_p99` carrying the
/// summary percentiles (OpenMetrics histograms have no quantile samples,
/// so the percentiles ride as their own gauge families).
pub fn encode_openmetrics(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (name, help, value) in registry.iter() {
        match value {
            MetricValue::Counter(v) => {
                let family = name.strip_suffix("_total").unwrap_or(name);
                let _ = writeln!(out, "# TYPE {family} counter");
                let _ = writeln!(out, "# HELP {family} {}", escape_help(help));
                let _ = writeln!(out, "{family}_total {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let _ = writeln!(out, "{name} {}", fmt_value(*v));
            }
            MetricValue::Info(labels) => {
                // Encoded as the conventional constant-1 gauge with the
                // payload in labels (`build_info` style) — the `info`
                // metric type postdates the Prometheus text format and
                // plain gauges scrape everywhere.
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let rendered: Vec<String> = labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                    .collect();
                let _ = writeln!(out, "{name}{{{}}} 1", rendered.join(","));
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                let last_occupied = h
                    .buckets()
                    .enumerate()
                    .filter(|&(_, (_, n))| n > 0)
                    .map(|(i, _)| i)
                    .last();
                let mut cumulative = 0u64;
                if let Some(last) = last_occupied {
                    for (i, (le, n)) in h.buckets().enumerate() {
                        if i > last {
                            break;
                        }
                        cumulative += n;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
                let s = h.summary();
                for (suffix, v) in [("p50", s.p50), ("p90", s.p90), ("p99", s.p99)] {
                    let _ = writeln!(out, "# TYPE {name}_{suffix} gauge");
                    let _ = writeln!(
                        out,
                        "# HELP {name}_{suffix} {suffix} of {name} (log2-bucket upper bound)"
                    );
                    let _ = writeln!(out, "{name}_{suffix} {v}");
                }
            }
        }
    }
    out.push_str("# EOF\n");
    out
}

fn valid_metric_chars(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Strictly validate OpenMetrics text: every line must be a well-formed
/// `# TYPE` / `# HELP` comment or a `name[{labels}] value` sample whose
/// name belongs to a previously declared family, and the document must
/// end with exactly one `# EOF` line. Returns the offending line on
/// failure. This is the checker the verify-script smoke step runs on a
/// live scrape.
pub fn check_openmetrics(text: &str) -> Result<(), String> {
    let mut families: Vec<String> = Vec::new();
    let mut saw_eof = false;
    for (lineno, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", lineno + 1));
        if saw_eof {
            return err("content after # EOF");
        }
        if line == "# EOF" {
            saw_eof = true;
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let Some(family) = parts.next() else {
                        return err("TYPE without family");
                    };
                    if !valid_metric_chars(family) {
                        return err("invalid family name");
                    }
                    match parts.next() {
                        Some("counter" | "gauge" | "histogram" | "summary" | "untyped") => {}
                        _ => return err("unknown metric type"),
                    }
                    families.push(family.to_string());
                }
                Some("HELP") => {
                    if parts.next().is_none() {
                        return err("HELP without family");
                    }
                }
                _ => return err("unknown comment"),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rfind(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => return err("sample without value"),
        };
        let name = match name_labels.find('{') {
            Some(b) => {
                if !name_labels.ends_with('}') {
                    return err("unterminated label block");
                }
                &name_labels[..b]
            }
            None => name_labels,
        };
        if !valid_metric_chars(name) {
            return err("invalid sample name");
        }
        let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !value_ok {
            return err("unparseable sample value");
        }
        let belongs = families.iter().any(|f| {
            name == f
                || name
                    .strip_prefix(f.as_str())
                    .is_some_and(|s| s.starts_with('_'))
        });
        if !belongs {
            return err("sample for undeclared family");
        }
    }
    if !saw_eof {
        return Err("missing # EOF terminator".into());
    }
    Ok(())
}

/// Scrape `addr` once over plain HTTP and return the response body —
/// the client half the smoke tests pair with [`Collector`](crate::Collector).
pub fn scrape(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: qtaccel\r\nConnection: close\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_string()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response has no header/body separator",
        )),
    }
}

/// A Chrome trace metadata event naming a track: `kind` is
/// `"process_name"` or `"thread_name"`.
pub(crate) fn track_name(kind: &str, pid: u64, tid: u64, name: String) -> Json {
    Json::Obj(vec![
        ("ph", Json::Str("M".into())),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("name", Json::Str(kind.into())),
        ("args", Json::Obj(vec![("name", Json::Str(name))])),
    ])
}

/// A thread-scoped instant (`ph: "i"`) event.
pub(crate) fn instant(
    pid: u64,
    tid: u64,
    ts: u64,
    name: String,
    cat: &str,
    args: Vec<(&'static str, Json)>,
) -> Json {
    Json::Obj(vec![
        ("ph", Json::Str("i".into())),
        ("s", Json::Str("t".into())),
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(ts)),
        ("args", Json::Obj(args)),
    ])
}

/// A complete (`ph: "X"`) slice.
pub(crate) fn slice(
    pid: u64,
    tid: u64,
    ts: u64,
    dur: u64,
    name: String,
    cat: &str,
    args: Vec<(&'static str, Json)>,
) -> Json {
    Json::Obj(vec![
        ("ph", Json::Str("X".into())),
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.into())),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("ts", Json::UInt(ts)),
        ("dur", Json::UInt(dur)),
        ("args", Json::Obj(args)),
    ])
}

/// The document Perfetto loads: every event, displayed in milliseconds.
pub(crate) fn trace_document(events: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// Convert per-pipeline event streams into a Chrome trace-event document
/// (the JSON object form Perfetto loads directly).
///
/// Each `(track_name, events)` pair becomes one named thread track under
/// pid 1 (tid = index): stage occupancy renders as 1-cycle `stage{n}`
/// slices, stalls as `stall` spans covering the full interval, commits
/// as 1-cycle `commit` spans, and hazards/forwards as instant markers.
/// Timestamps map one simulation cycle to one trace microsecond and are
/// sorted non-decreasing within every track (stall spans are emitted at
/// their begin cycle, which can precede events recorded mid-stall).
pub fn chrome_trace(tracks: &[(String, Vec<Event>)]) -> Json {
    let at = |mem: MemKind, addr: u64| {
        vec![
            ("mem", Json::Str(mem.name().into())),
            ("addr", Json::UInt(addr)),
        ]
    };
    let mut trace_events: Vec<Json> = Vec::new();
    for (tid, (name, events)) in tracks.iter().enumerate() {
        let tid = tid as u64;
        trace_events.push(track_name("thread_name", 1, tid, name.clone()));
        let mut emitted: Vec<(u64, Json)> = Vec::new();
        let mut open_stall: Option<(u64, MemKind, u64)> = None;
        let mut last_cycle = 0u64;
        let stall = |begin: u64, end: u64, mem, addr| {
            let dur = end.saturating_sub(begin);
            let span = slice(1, tid, begin, dur, "stall".into(), "stall", at(mem, addr));
            (begin, span)
        };
        for ev in events {
            last_cycle = last_cycle.max(ev.cycle());
            match *ev {
                Event::Stage {
                    cycle,
                    stage,
                    iteration,
                } => {
                    let args = vec![("iteration", Json::UInt(iteration))];
                    let stage = slice(1, tid, cycle, 1, format!("stage{stage}"), "stage", args);
                    emitted.push((cycle, stage));
                }
                Event::Hazard { cycle, mem, addr } => {
                    let hazard = instant(1, tid, cycle, "hazard".into(), "hazard", at(mem, addr));
                    emitted.push((cycle, hazard));
                }
                Event::Forward { cycle, mem, addr } => {
                    let forward =
                        instant(1, tid, cycle, "forward".into(), "forward", at(mem, addr));
                    emitted.push((cycle, forward));
                }
                Event::Commit { cycle, mem, addr } => {
                    let commit = slice(1, tid, cycle, 1, "commit".into(), "commit", at(mem, addr));
                    emitted.push((cycle, commit));
                }
                Event::StallBegin { cycle, mem, addr } => open_stall = Some((cycle, mem, addr)),
                Event::StallEnd { cycle } => {
                    if let Some((begin, mem, addr)) = open_stall.take() {
                        emitted.push(stall(begin, cycle, mem, addr));
                    }
                }
            }
        }
        // A trace cut mid-stall still shows the open interval.
        if let Some((begin, mem, addr)) = open_stall {
            emitted.push(stall(begin, last_cycle, mem, addr));
        }
        // Stall spans surface at their begin cycle, so restore the
        // per-track monotonic ts order Perfetto expects.
        emitted.sort_by_key(|&(ts, _)| ts);
        trace_events.extend(emitted.into_iter().map(|(_, j)| j));
    }
    trace_document(trace_events)
}

/// Render a training-health snapshot series as Chrome trace counter
/// events (`ph:"C"`), one counter track per probe quantity, so TD-error,
/// policy churn, rail proximity and state coverage plot as time series
/// in ui.perfetto.dev alongside the span tracks from [`chrome_trace`].
///
/// `track_name` prefixes every counter name (counter tracks are keyed by
/// name, so per-pipeline prefixes keep multi-pipeline documents apart);
/// timestamps reuse the 1 cycle = 1 µs mapping. Counters carry the
/// cumulative probe values at each snapshot — Perfetto renders the
/// series directly, and rates are one derivative away.
pub fn health_counter_tracks(
    track_name: &str,
    series: &[crate::health::HealthSnapshot],
) -> Vec<Json> {
    let mut events = Vec::with_capacity(series.len() * 4);
    for snap in series {
        let coverage = if snap.num_states > 0 {
            snap.states_visited as f64 / snap.num_states as f64
        } else {
            0.0
        };
        let counters: [(&str, Json); 4] = [
            ("td_error_p99", Json::UInt(snap.td.p99)),
            ("policy_churn", Json::UInt(snap.churn)),
            (
                "near_rail",
                Json::UInt(snap.near_rail_q + snap.near_rail_qmax),
            ),
            ("state_coverage", Json::Num(coverage)),
        ];
        for (suffix, value) in counters {
            events.push(Json::Obj(vec![
                ("ph", Json::Str("C".into())),
                ("name", Json::Str(format!("{track_name}/{suffix}"))),
                ("pid", Json::UInt(1)),
                ("ts", Json::UInt(snap.cycle)),
                ("args", Json::Obj(vec![("value", value)])),
            ]));
        }
    }
    events
}

/// [`chrome_trace`] plus [`health_counter_tracks`]: span tracks from the
/// event streams and counter tracks from the health series, one loadable
/// document.
pub fn chrome_trace_with_health(
    tracks: &[(String, Vec<Event>)],
    health: &[(String, Vec<crate::health::HealthSnapshot>)],
) -> Json {
    let mut doc = chrome_trace(tracks);
    if let Json::Obj(fields) = &mut doc {
        if let Some((_, Json::Arr(events))) = fields.iter_mut().find(|(k, _)| *k == "traceEvents") {
            for (name, series) in health {
                events.extend(health_counter_tracks(name, series));
            }
        }
    }
    doc
}

/// Render the stage events among `events` as a text waveform covering
/// cycles `[from, from + width)`: rows are stages S1–S4, columns are
/// cycles, each cell shows `iteration % 10`, and `.` is an idle slot.
/// Every other event variant is ignored.
pub fn waveform<'a>(events: impl IntoIterator<Item = &'a Event>, from: u64, width: u64) -> String {
    let mut grid = vec![vec!['.'; width as usize]; 4];
    for ev in events {
        let Event::Stage {
            cycle,
            stage,
            iteration,
        } = *ev
        else {
            continue;
        };
        if (from..from + width).contains(&cycle) {
            grid[usize::from(stage) - 1][(cycle - from) as usize] =
                char::from_digit((iteration % 10) as u32, 10).unwrap_or('?');
        }
    }
    let mut out = format!("cycle {from:>6} +{width}\n");
    for (row, name) in grid.iter().zip(["S1", "S2", "S3", "S4"]) {
        out.push_str(name);
        out.push(' ');
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

/// Occupancy of `stage` over the cycles its events span: the fraction
/// of those cycles with an iteration present (1.0 = a perfectly full
/// pipe, 0.0 when `events` hold no event for the stage).
pub fn stage_occupancy<'a>(events: impl IntoIterator<Item = &'a Event>, stage: u8) -> f64 {
    let (mut n, mut first, mut last) = (0u64, u64::MAX, 0u64);
    for ev in events {
        if let Event::Stage {
            cycle, stage: s, ..
        } = *ev
        {
            if s == stage {
                n += 1;
                first = first.min(cycle);
                last = last.max(cycle);
            }
        }
    }
    if n == 0 {
        return 0.0;
    }
    n as f64 / (last - first + 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CounterBank, CounterId};
    use crate::json::parse;

    fn sample_registry() -> MetricsRegistry {
        let mut bank = CounterBank::new();
        bank.add(CounterId::SamplesRetired, 12345);
        bank.add(CounterId::FwdQHit, 67);
        let mut r = MetricsRegistry::new();
        r.record_counter_bank(&bank);
        r.set_gauge("qtaccel_executor_queue_depth", "sampled queue depth", 3.0);
        for v in [100u64, 200, 400, 100_000] {
            r.observe("qtaccel_executor_chunk_service_ns", "chunk service", v);
        }
        r
    }

    #[test]
    fn openmetrics_encodes_counters_gauges_histograms() {
        let text = encode_openmetrics(&sample_registry());
        assert!(text.contains("# TYPE qtaccel_samples counter\n"));
        assert!(text.contains("qtaccel_samples_total 12345\n"));
        assert!(text.contains("# TYPE qtaccel_executor_queue_depth gauge\n"));
        assert!(text.contains("qtaccel_executor_queue_depth 3\n"));
        assert!(text.contains("# TYPE qtaccel_executor_chunk_service_ns histogram\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_count 4\n"));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_p50 "));
        assert!(text.contains("qtaccel_executor_chunk_service_ns_p99 "));
        assert!(text.ends_with("# EOF\n"));
        check_openmetrics(&text).expect("self-validates");
    }

    #[test]
    fn openmetrics_buckets_are_cumulative() {
        let mut r = MetricsRegistry::new();
        for v in [1u64, 2, 2, 5] {
            r.observe("qtaccel_test_ns", "t", v);
        }
        let text = encode_openmetrics(&r);
        // value 1 -> le=1 (1), values 2,2 -> le=3 (cum 3), value 5 -> le=7 (cum 4).
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"3\"} 3\n"));
        assert!(text.contains("qtaccel_test_ns_bucket{le=\"7\"} 4\n"));
        assert!(text.contains("qtaccel_test_ns_sum 10\n"));
        check_openmetrics(&text).unwrap();
    }

    #[test]
    fn checker_rejects_malformed_documents() {
        for bad in [
            "",                                               // no EOF
            "qtaccel_x 1\n# EOF\n",                           // undeclared family
            "# TYPE qtaccel_x gauge\nqtaccel_x\n# EOF\n",     // no value
            "# TYPE qtaccel_x wat\n# EOF\n",                  // bad type
            "# TYPE qtaccel_x gauge\nqtaccel_x one\n# EOF\n", // bad value
            "# EOF\ntrailing 1\n",                            // content after EOF
        ] {
            assert!(check_openmetrics(bad).is_err(), "should reject {bad:?}");
        }
        let good = "# TYPE qtaccel_x gauge\nqtaccel_x 1.5\n# EOF\n";
        check_openmetrics(good).unwrap();
    }

    fn stall_stream() -> Vec<Event> {
        vec![
            Event::Stage {
                cycle: 1,
                stage: 1,
                iteration: 0,
            },
            Event::Hazard {
                cycle: 2,
                mem: MemKind::Q,
                addr: 7,
            },
            Event::StallBegin {
                cycle: 2,
                mem: MemKind::Q,
                addr: 7,
            },
            Event::Commit {
                cycle: 3,
                mem: MemKind::Qmax,
                addr: 1,
            },
            Event::StallEnd { cycle: 5 },
            Event::Forward {
                cycle: 6,
                mem: MemKind::Qmax,
                addr: 3,
            },
        ]
    }

    #[test]
    fn chrome_trace_round_trips_with_monotonic_tracks() {
        let tracks = vec![
            ("pipeline-0".to_string(), stall_stream()),
            ("pipeline-1".to_string(), stall_stream()),
        ];
        let doc = chrome_trace(&tracks);
        let p = parse(&doc.pretty()).expect("strict parse");
        let events = p.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 metadata + 2×(1 stage + 1 hazard + 1 stall span + 1 commit + 1 forward)
        assert_eq!(events.len(), 2 + 2 * 5);
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
            .collect();
        assert!(names.contains(&"thread_name"));
        assert!(names.contains(&"stall"));
        assert!(names.contains(&"commit"));
        // Per-track ts must be non-decreasing.
        for tid in 0..2u64 {
            let ts: Vec<u64> = events
                .iter()
                .filter(|e| {
                    e.get("tid").and_then(|t| t.as_u64()) == Some(tid) && e.get("ts").is_some()
                })
                .map(|e| e.get("ts").unwrap().as_u64().unwrap())
                .collect();
            assert!(ts.windows(2).all(|w| w[0] <= w[1]), "tid {tid}: {ts:?}");
        }
        // The stall span covers cycles 2..5.
        let stall = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("stall"))
            .unwrap();
        assert_eq!(stall.get("ts").unwrap().as_u64(), Some(2));
        assert_eq!(stall.get("dur").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn health_counter_tracks_render_the_snapshot_series() {
        use crate::health::{HealthConfig, HealthProbe};
        let mut probe = HealthProbe::new(HealthConfig::default());
        probe.bind_states(4);
        probe.observe_sample(10, 1, 0, 256, 16, true, true);
        let series = vec![probe.snapshot()];
        let emitted = Json::Arr(health_counter_tracks("p0", &series));
        let parsed = parse(&emitted.compact()).expect("counter events are valid JSON");
        let events = parsed.as_arr().unwrap();
        assert_eq!(events.len(), 4, "four counter tracks per snapshot");
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("C"));
            assert_eq!(e.get("ts").unwrap().as_u64(), Some(10));
            assert!(e.get("args").unwrap().get("value").is_some());
        }
        let names: Vec<&str> = events
            .iter()
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        for suffix in [
            "td_error_p99",
            "policy_churn",
            "near_rail",
            "state_coverage",
        ] {
            assert!(
                names.contains(&format!("p0/{suffix}").as_str()),
                "{names:?}"
            );
        }
        // Counters merge into one loadable document next to span tracks,
        // and the whole thing survives the strict parser.
        let doc =
            chrome_trace_with_health(&[("p0".into(), stall_stream())], &[("p0".into(), series)]);
        let reparsed = parse(&doc.compact()).expect("valid JSON");
        let n = reparsed.get("traceEvents").unwrap().as_arr().unwrap().len();
        let spans = parse(&chrome_trace(&[("p0".into(), stall_stream())]).compact()).unwrap();
        let spans_n = spans.get("traceEvents").unwrap().as_arr().unwrap().len();
        assert_eq!(n, spans_n + 4, "counter events appended to the span set");
    }
}
