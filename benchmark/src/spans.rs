//! The benchmark's own span recorder, used by the traced run only.
//!
//! Spans wrap each call the benchmark makes into a layer (`nas.new`,
//! `nas.step[i]`, `xp.execute`, a rung, ...); nothing inside the crates is
//! instrumented. They are kept in memory and written as JSONL when the run
//! ends. A disabled recorder records nothing, so the untraced run shares
//! the code path without paying for it.

use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `nas.step[3]`.
    pub name: String,
    /// The cell or request the span belongs to (shared by its whole tree).
    pub id: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
}

/// In-memory span recorder with an explicit open-span stack.
pub struct Recorder {
    enabled: bool,
    paused: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records (`true`) or ignores (`false`) every span.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            paused: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Stop (`true`) or resume (`false`) recording. The traced run pauses
    /// on every other round or pass, so that the paused ones are the
    /// untraced reference its tracing overhead is measured against.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Run `f` inside a span named `name` for cell/request `id`. The span's
    /// parent is whatever span is open on this recorder right now.
    pub fn span<R>(&mut self, name: &str, id: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled || self.paused {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            id: id.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        let depth = self.stack.len();
        self.stack.push(index);
        let r = f(self);
        // Not `pop`: a panic caught inside `f` leaves its spans open.
        self.stack.truncate(depth);
        self.spans[index].end_ns = self.t0.elapsed().as_nanos() as u64;
        r
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Self time summed by layer (the span name up to the first `.`),
    /// largest first.
    pub fn self_secs_by_layer(&self) -> Vec<(String, f64)> {
        let mut acc: std::collections::BTreeMap<String, u64> = Default::default();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let layer = s.name.split('.').next().unwrap_or(&s.name);
            *acc.entry(layer.to_string()).or_default() += own;
        }
        let mut out: Vec<(String, f64)> = acc
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 * 1e-9))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// The spans as JSONL: one object per line with the span's index,
    /// name, id, parent index (or null), start/end and self time in µs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":{},\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}\n",
                json_string(&s.name),
                json_string(&s.id),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                own as f64 / 1e3,
            ));
        }
        out
    }
}

fn json_string(s: &str) -> String {
    obs::json::Value::from(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true);
        rec.span("xp.execute", "pass-0", |rec| {
            rec.span("nas.step[0]", "pass-0", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            rec.span("nas.step[1]", "pass-0", |_| ());
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = rec.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert!(own[1] >= 2_000_000);
        let layers = rec.self_secs_by_layer();
        assert_eq!(layers[0].0, "nas");
        let lines: Vec<_> = rec.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 3);
        for line in lines {
            let v = obs::json::Value::parse(&line).expect("valid JSON");
            assert_eq!(v["id"].as_str(), Some("pass-0"));
        }
    }

    #[test]
    fn a_disabled_or_paused_recorder_runs_the_body_and_records_nothing() {
        let mut rec = Recorder::new(false);
        let r = rec.span("nas.new", "c", |_| 41 + 1);
        assert_eq!(r, 42);
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::new(true);
        rec.pause(true);
        rec.span("nas.new", "c", |_| ());
        assert!(rec.spans().is_empty());
        rec.pause(false);
        rec.span("nas.new", "c", |_| ());
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn a_panic_caught_inside_a_span_does_not_adopt_later_spans() {
        let mut rec = Recorder::new(true);
        rec.span("ledger.cell", "a", |rec| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rec.span("nas.step[0]", "a", |_| panic!("boom"))
            }));
            assert!(caught.is_err());
        });
        rec.span("ledger.cell", "b", |_| ());
        assert_eq!(rec.spans()[2].parent, None);
    }
}
