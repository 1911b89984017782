//! In-memory span recording for the traced run.
//!
//! Every timed call into a library crate is one span: its name, start,
//! end (seconds since the tracer was created) and the span that was
//! open around it. Spans stay in memory and are written out once, when
//! the run ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `workload.generate`.
    pub name: String,
    /// Start, seconds since the tracer's epoch.
    pub start_s: f64,
    /// End, seconds since the tracer's epoch.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Records nested spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_s: self.now_s(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span) and
    /// returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        let end = self.now_s();
        let span = &mut self.spans[id];
        span.end_s = end;
        end - span.start_s
    }

    /// Times `f` as one span and returns its value and duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let value = std::hint::black_box(f());
        let dt = self.end(id);
        (value, dt)
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::from(s.name.as_str())),
                        ("start_s", s.start_s.into()),
                        ("end_s", s.end_s.into()),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        )
    }
}
