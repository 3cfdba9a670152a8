//! Exporters: JSON Lines (one object per line, grep-friendly) and Chrome
//! trace-event format (open `trace.chrome.json` in Perfetto or
//! `chrome://tracing`). This module is the only code that knows either
//! format: [`jsonl`] is the framing and [`chrome_document`] plus the entry
//! constructors ([`event_entry`], [`thread_name`], [`complete_span`],
//! [`counter_sample`]) are the trace-event document, on whichever clock
//! the caller keeps.
//!
//! The event exporters here ([`to_jsonl`], [`chrome_trace`]) are keyed to
//! simulated time: the Chrome `ts` field is simulated microseconds, so the
//! trace UI's timeline *is* the simulated machine's timeline.
//! `hostprof::export` maps its span log through the same constructors on
//! host time.
//!
//! JSON Lines output starts with a schema header line
//! (`{"schema":"ddnomp-trace","major":..,"minor":..,"dropped_events":..}`)
//! so readers can reject incompatible traces and see whether the bounded
//! event ring had to evict anything; [`crate::import`] is the matching
//! reader.

use crate::event::{Event, EventKind};
use crate::json::Value;

/// Schema identifier carried by the JSON Lines header line.
pub const TRACE_SCHEMA_NAME: &str = "ddnomp-trace";
/// Major trace-schema version: bumped on incompatible changes (removed or
/// retyped fields); readers reject other majors.
pub const TRACE_SCHEMA_MAJOR: u64 = 1;
/// Minor trace-schema version: bumped on additive changes (new event kinds
/// or fields); readers accept any minor under a known major.
pub const TRACE_SCHEMA_MINOR: u64 = 1;

/// The schema header object that leads a JSON Lines export.
pub fn schema_header(dropped_events: u64) -> Value {
    Value::object(vec![
        ("schema", TRACE_SCHEMA_NAME.into()),
        ("major", TRACE_SCHEMA_MAJOR.into()),
        ("minor", TRACE_SCHEMA_MINOR.into()),
        ("dropped_events", dropped_events.into()),
    ])
}

/// The JSON Lines framing both clock domains share: `header` on the first
/// line, then one compact object per line.
pub fn jsonl(header: Value, lines: impl IntoIterator<Item = Value>) -> String {
    let mut out = String::new();
    for line in std::iter::once(header).chain(lines) {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// One compact JSON object per event, newline-delimited, led by the schema
/// header line carrying `dropped_events` (events the bounded ring evicted
/// before export — 0 means the trace is complete).
pub fn to_jsonl<'a>(events: impl Iterator<Item = &'a Event>, dropped_events: u64) -> String {
    jsonl(schema_header(dropped_events), events.map(event_to_json))
}

/// One event as a flat JSON object: `{"t_ns":..,"event":..,<fields>}`.
pub fn event_to_json(event: &Event) -> Value {
    let mut pairs = vec![
        ("t_ns", event.t_ns.into()),
        ("event", event.kind.name().into()),
    ];
    pairs.extend(event.kind.fields());
    Value::object(pairs)
}

/// One trace-event entry in the fixed key order every consumer's bytes
/// depend on: `name, ph, ts, dur, pid, tid, s, args`, absent parts left
/// out. Times come in nanoseconds of whichever clock the caller is on and
/// leave as the format's microseconds; instants get thread scope.
fn entry(
    name: &str,
    ph: &str,
    ts_ns: Option<f64>,
    dur_ns: Option<f64>,
    tid: Option<u64>,
    args: Option<Value>,
) -> Value {
    let mut pairs = vec![("name", name.into()), ("ph", ph.into())];
    pairs.extend(ts_ns.map(|t| ("ts", (t / 1000.0).into())));
    pairs.extend(dur_ns.map(|d| ("dur", (d / 1000.0).into())));
    pairs.push(("pid", 1u64.into()));
    pairs.extend(tid.map(|tid| ("tid", tid.into())));
    if ph == "i" {
        pairs.push(("s", "t".into()));
    }
    pairs.extend(args.map(|args| ("args", args)));
    Value::object(pairs)
}

fn name_record(what: &str, tid: Option<u64>, name: &str) -> Value {
    let args = Value::object(vec![("name", name.into())]);
    entry(what, "M", None, None, tid, Some(args))
}

/// The `thread_name` metadata record (`"ph":"M"`) labelling track `tid`.
pub fn thread_name(tid: u64, name: &str) -> Value {
    name_record("thread_name", Some(tid), name)
}

/// One complete span (`"ph":"X"`) on track `tid`: `dur_ns` from `start_ns`.
pub fn complete_span(name: &str, tid: u64, start_ns: f64, dur_ns: f64) -> Value {
    entry(name, "X", Some(start_ns), Some(dur_ns), Some(tid), None)
}

/// One Perfetto counter sample (`"ph":"C"`): a named counter track takes
/// value `value` at time `t_ns`. Multi-series tracks pass several
/// `(series, value)` pairs under the same `name`.
pub fn counter_sample(name: &str, t_ns: f64, series: Vec<(&str, Value)>) -> Value {
    let args = Value::object(series);
    entry(name, "C", Some(t_ns), None, None, Some(args))
}

/// The Chrome trace-event document (JSON object format) around `entries`:
/// the `process_name` record first, and `dropped_events` at the top level
/// so a truncated trace is visibly truncated. Perfetto orders by `ts`, so
/// the order of `entries` is irrelevant to the rendering.
pub fn chrome_document(
    process_name: &str,
    entries: impl IntoIterator<Item = Value>,
    dropped_events: u64,
) -> Value {
    let mut trace_events = vec![name_record("process_name", None, process_name)];
    trace_events.extend(entries);
    Value::object(vec![
        ("traceEvents", Value::Array(trace_events)),
        ("displayTimeUnit", "ms".into()),
        ("dropped_events", dropped_events.into()),
    ])
}

/// One simulated-clock event as a trace-event entry: `RegionBegin`/
/// `RegionEnd` become `B`/`E` duration events on one track, so parallel
/// regions render as spans; everything else is an instant event (`i`).
/// Tracks are one synthetic tid per event family so Perfetto groups them
/// sensibly.
pub fn event_entry(event: &Event) -> Value {
    let (ph, tid) = match event.kind {
        EventKind::RegionBegin { .. } => ("B", 1u64),
        EventKind::RegionEnd { .. } => ("E", 1u64),
        EventKind::IterationBoundary { .. } => ("i", 2u64),
        EventKind::KernelScan { .. } => ("i", 3u64),
        _ => ("i", 4u64),
    };
    let (name, args) = (event.kind.name(), Value::object(event.kind.fields()));
    entry(name, ph, Some(event.t_ns), None, Some(tid), Some(args))
}

/// The Chrome trace-event document of a simulated-clock event stream
/// ([`chrome_document`] over [`event_entry`]; chain further entries, such
/// as [`counter_sample`] tracks, by calling those two directly).
pub fn chrome_trace<'a>(
    events: impl Iterator<Item = &'a Event>,
    process_name: &str,
    dropped_events: u64,
) -> Value {
    chrome_document(process_name, events.map(event_entry), dropped_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t_ns: 100.0,
                kind: EventKind::RegionBegin { region: 0 },
            },
            Event {
                t_ns: 150.0,
                kind: EventKind::PageMigrated {
                    vpage: 7,
                    from: 0,
                    to: 2,
                },
            },
            Event {
                t_ns: 900.0,
                kind: EventKind::RegionEnd { region: 0 },
            },
        ]
    }

    #[test]
    fn jsonl_is_a_header_plus_one_valid_object_per_line() {
        let events = sample_events();
        let text = to_jsonl(events.iter(), 3);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let header = Value::parse(lines[0]).unwrap();
        assert_eq!(header["schema"], TRACE_SCHEMA_NAME);
        assert_eq!(header["major"].as_u64(), Some(TRACE_SCHEMA_MAJOR));
        assert_eq!(header["minor"].as_u64(), Some(TRACE_SCHEMA_MINOR));
        assert_eq!(header["dropped_events"].as_u64(), Some(3));
        let mig = Value::parse(lines[2]).unwrap();
        assert_eq!(mig["event"], "PageMigrated");
        assert_eq!(mig["vpage"].as_u64(), Some(7));
        assert_eq!(mig["t_ns"].as_f64(), Some(150.0));
    }

    #[test]
    fn chrome_trace_has_matched_spans_and_instants() {
        let events = sample_events();
        let doc = chrome_trace(events.iter(), "test-run", 0);
        let entries = doc["traceEvents"].as_array().unwrap();
        // metadata + 3 events
        assert_eq!(entries.len(), 4);
        assert_eq!(entries[1]["ph"], "B");
        assert_eq!(entries[2]["ph"], "i");
        assert_eq!(entries[3]["ph"], "E");
        // ts is simulated µs.
        assert_eq!(entries[1]["ts"].as_f64(), Some(0.1));
        assert_eq!(doc["dropped_events"].as_u64(), Some(0));
        // The whole document parses back.
        assert!(Value::parse(&doc.to_string_pretty()).is_ok());
    }

    #[test]
    fn host_spans_map_to_named_tracks_of_complete_events() {
        let entries = vec![
            thread_name(3, "xp-worker-3"),
            complete_span("cell:cg", 3, 5_000.0, 2_000_000.0),
        ];
        let doc = chrome_document("selfprof", entries, 1);
        let entries = doc["traceEvents"].as_array().unwrap();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0]["name"], "process_name");
        assert_eq!(entries[0]["args"]["name"], "selfprof");
        let track = &entries[1];
        assert_eq!(track["name"], "thread_name");
        assert_eq!(track["ph"], "M");
        assert_eq!(track["tid"].as_u64(), Some(3));
        assert_eq!(track["args"]["name"], "xp-worker-3");
        let span = &entries[2];
        assert_eq!(span["ph"], "X");
        assert_eq!(span["tid"].as_u64(), Some(3));
        // ts and dur are host µs.
        assert_eq!(span["ts"].as_f64(), Some(5.0));
        assert_eq!(span["dur"].as_f64(), Some(2000.0));
        assert!(span.get("args").is_none() && span.get("s").is_none());
        assert_eq!(doc["dropped_events"].as_u64(), Some(1));
    }

    #[test]
    fn chrome_trace_appends_counter_tracks_and_stamps_drops() {
        let events = sample_events();
        let extra = vec![counter_sample(
            "migrations a",
            150.0,
            vec![("node2", 1u64.into())],
        )];
        let entries = events.iter().map(event_entry).chain(extra);
        let doc = chrome_document("test-run", entries, 7);
        let entries = doc["traceEvents"].as_array().unwrap();
        assert_eq!(entries.len(), 5);
        let counter = &entries[4];
        assert_eq!(counter["ph"], "C");
        assert_eq!(counter["ts"].as_f64(), Some(0.15));
        assert_eq!(counter["args"]["node2"].as_u64(), Some(1));
        assert_eq!(doc["dropped_events"].as_u64(), Some(7));
    }
}
