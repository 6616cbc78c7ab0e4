//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded by the harness around its calls into each layer
//! (tracing inside the program is a later change), kept in memory, and
//! written out once when the run ends. A layer's *self time* is its
//! span's duration minus the time its direct children cover.

use std::time::Instant;

use serde::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`module.operation`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one (`None` for the root).
    pub parent: Option<u32>,
}

impl Span {
    /// Wall-clock duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Append-only span store; all spans of one recorder share `run_id`.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    run_id: String,
    spans: Vec<Span>,
}

impl Recorder {
    /// Creates a recorder whose epoch is now.
    pub fn new(run_id: impl Into<String>) -> Self {
        Recorder {
            epoch: Instant::now(),
            run_id: run_id.into(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.map(|p| p.0),
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Records `f` as a span under `parent` and returns its result.
    pub fn time<T>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Every recorded span, in open order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        total_ns(&self.spans, name)
    }

    /// Summed self time of every span called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// The spans as a JSON document (`run_id` + one object per span).
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::Map(vec![
                    ("id".to_owned(), Value::UInt(i as u64)),
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("start_ns".to_owned(), Value::UInt(s.start_ns)),
                    ("end_ns".to_owned(), Value::UInt(s.end_ns)),
                    (
                        "parent".to_owned(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(u64::from(p))),
                    ),
                ])
            })
            .collect();
        let doc = Value::Map(vec![
            ("run_id".to_owned(), Value::Str(self.run_id.clone())),
            ("spans".to_owned(), Value::Seq(spans)),
        ]);
        serde_json::to_string(&doc).expect("span tree holds no non-finite floats")
    }
}

/// Summed duration of every span called `name`.
fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// Self time per span: duration minus the durations of its direct
/// children (children never overlap: the harness is single-threaded).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("hitmap", 15, 25, Some(1)),
            span("train", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert_eq!(total_ns(&spans, "plan"), 30);
    }

    #[test]
    fn recorder_nests_and_serialises() {
        let mut rec = Recorder::new("run-1");
        let root = rec.open("root", None);
        let got = rec.time("child", root, || 7);
        rec.close(root);
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            rec.self_ns("root") + rec.total_ns("child"),
            rec.total_ns("root")
        );
        let doc = serde_json::parse(&rec.to_json()).unwrap();
        assert_eq!(doc.get("run_id"), Some(&Value::Str("run-1".to_owned())));
        match doc.get("spans") {
            Some(Value::Seq(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[0].get("parent"), Some(&Value::Null));
                assert_eq!(items[1].get("parent"), Some(&Value::UInt(0)));
            }
            other => panic!("spans missing: {other:?}"),
        }
    }
}
