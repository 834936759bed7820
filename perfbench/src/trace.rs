//! Outside-in span recorder for the traced run.
//!
//! Spans wrap the benchmark's calls into each crate's public functions;
//! nothing inside the program is instrumented. They stay in memory and are
//! written once, at the end, as Chrome trace-event JSON (loads in Perfetto
//! and chrome://tracing).

use std::time::Instant;

use crate::util::{json_num, json_str};

pub struct Span {
    pub layer: &'static str,
    pub name: String,
    pub matrix: String,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    /// Timeline row: 1 = benchmark thread, 2/3 = tenant A/B requests.
    pub tid: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str, enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span nested under the innermost open one. A disabled tracer
    /// records nothing.
    pub fn open(&mut self, layer: &'static str, name: &str, matrix: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.us(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            matrix: matrix.to_string(),
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            tid: 1,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its length in
    /// seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans close innermost first");
        let now = self.us(Instant::now());
        let s = &mut self.spans[id];
        s.end_us = now;
        (s.end_us - s.start_us) * 1e-6
    }

    /// Time `f` as one span and return its result with the span length in
    /// seconds.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &str,
        matrix: &str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(layer, name, matrix);
        let r = f();
        (r, self.close(id))
    }

    /// Record a span after the fact (requests measured by the serving loop).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &str,
        matrix: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        tid: u32,
    ) {
        if !self.enabled {
            return;
        }
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            layer,
            name: name.to_string(),
            matrix: matrix.to_string(),
            start_us,
            end_us,
            parent,
            tid,
        });
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON: one complete ("X") event per span, with
    /// layer as the category and workload, matrix, id and parent as args.
    pub fn chrome_json(&self, facts: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"layer\":{},\"workload\":{},\"matrix\":{},\"id\":{},\"parent\":{}}}}}",
                json_str(&s.name),
                json_str(s.layer),
                json_num(s.start_us),
                json_num((s.end_us - s.start_us).max(0.0)),
                s.tid,
                json_str(s.layer),
                json_str(&self.workload),
                json_str(&s.matrix),
                id,
                parent
            ));
        }
        out.push_str(&format!("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{facts}}}\n"));
        out
    }
}
