//! Exporters for a [`HostReport`]: JSON Lines (schema-headed, one
//! aggregate node per line) and a Chrome trace-event document whose
//! timeline is **host** time (`ts` = host microseconds since the session
//! origin). Only the `HostReport` → lines/entries mapping lives here; both
//! formats are `obs::export`'s.

use crate::report::{HostReport, SpanNode};
use obs::export::{chrome_document, complete_span, jsonl, thread_name};
use obs::json::Value;

/// Schema identifier carried by the JSON Lines header line.
pub const HOSTPROF_SCHEMA_NAME: &str = "ddnomp-hostprof";
/// Major schema version (readers reject other majors).
pub const HOSTPROF_SCHEMA_MAJOR: u64 = 1;
/// Minor schema version (additive changes only).
pub const HOSTPROF_SCHEMA_MINOR: u64 = 0;

/// The schema header object that leads a JSON Lines export.
pub fn schema_header(report: &HostReport) -> Value {
    Value::object(vec![
        ("schema", HOSTPROF_SCHEMA_NAME.into()),
        ("major", HOSTPROF_SCHEMA_MAJOR.into()),
        ("minor", HOSTPROF_SCHEMA_MINOR.into()),
        ("wall_secs", report.wall_secs.into()),
        ("threads", (report.threads.len() as u64).into()),
        ("dropped_events", report.dropped_events().into()),
    ])
}

/// JSON Lines: the schema header, then one line per merged aggregate node
/// (`path` is `/`-joined from the root), then one `thread` line per
/// registered thread.
pub fn to_jsonl(report: &HostReport) -> String {
    fn emit(lines: &mut Vec<Value>, path: &mut Vec<String>, nodes: &[SpanNode]) {
        for node in nodes {
            path.push(node.name.clone());
            lines.push(Value::object(vec![
                ("path", path.join("/").into()),
                ("name", node.name.as_str().into()),
                ("calls", node.calls.into()),
                ("incl_ns", node.incl_ns.into()),
                ("excl_ns", node.excl_ns().into()),
            ]));
            emit(lines, path, &node.children);
            path.pop();
        }
    }
    let mut lines = Vec::new();
    emit(&mut lines, &mut Vec::new(), &report.merged());
    lines.extend(report.threads.iter().map(|thread| {
        Value::object(vec![
            ("thread", thread.label.as_str().into()),
            ("events", (thread.events.len() as u64).into()),
            ("dropped_events", thread.dropped_events.into()),
        ])
    }));
    jsonl(schema_header(report), lines)
}

/// The Chrome trace-event document on host time: per-thread tracks
/// (`thread_name` metadata from the OS thread names), one `X` complete
/// event per recorded span occurrence. Open in Perfetto.
pub fn chrome_trace(report: &HostReport, process_name: &str) -> Value {
    let entries = report.threads.iter().enumerate().flat_map(|(tid, thread)| {
        let tid = tid as u64;
        let spans = thread.events.iter().map(move |event| {
            complete_span(&event.name, tid, event.start_ns as f64, event.dur_ns as f64)
        });
        std::iter::once(thread_name(tid, &thread.label)).chain(spans)
    });
    chrome_document(process_name, entries, report.dropped_events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{SpanEvent, ThreadSpans};

    fn sample() -> HostReport {
        let tree = SpanNode {
            name: "cell:cg".into(),
            calls: 1,
            incl_ns: 2_000_000,
            children: vec![SpanNode {
                name: "ccnuma.touch".into(),
                calls: 100,
                incl_ns: 1_500_000,
                children: vec![],
            }],
        };
        HostReport {
            threads: vec![ThreadSpans {
                label: "main".into(),
                roots: vec![tree],
                events: vec![SpanEvent {
                    name: "cell:cg".into(),
                    start_ns: 5_000,
                    dur_ns: 2_000_000,
                    depth: 0,
                }],
                dropped_events: 1,
            }],
            wall_secs: 0.01,
        }
    }

    #[test]
    fn jsonl_is_header_plus_parseable_lines() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        // header + 2 nodes + 1 thread line
        assert_eq!(lines.len(), 4);
        let header = Value::parse(lines[0]).unwrap();
        assert_eq!(header["schema"], HOSTPROF_SCHEMA_NAME);
        assert_eq!(header["major"].as_u64(), Some(HOSTPROF_SCHEMA_MAJOR));
        let child = Value::parse(lines[2]).unwrap();
        assert_eq!(child["path"], "cell:cg/ccnuma.touch");
        assert_eq!(child["calls"].as_u64(), Some(100));
        let thread = Value::parse(lines[3]).unwrap();
        assert_eq!(thread["thread"], "main");
    }

    /// The mapping only: one track per thread named by its label, one
    /// complete span per logged event, the report's drop count. What those
    /// entries look like on disk is `obs::export`'s to pin.
    #[test]
    fn chrome_trace_is_one_named_track_per_thread_of_complete_spans() {
        let doc = chrome_trace(&sample(), "selfprof");
        let entries = vec![
            thread_name(0, "main"),
            complete_span("cell:cg", 0, 5_000.0, 2_000_000.0),
        ];
        assert_eq!(doc, chrome_document("selfprof", entries, 1));
    }
}
