//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans inside the program are a later issue; everything here
//! is recorded from outside, on the calling thread.

use dfm_bench::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `{name, start_ns, end_ns, parent, job}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.operation`; the text before the dot selects the layer.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one replayed job.
    pub job: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a disabled tracer only runs the closures,
/// which is how tracing overhead is measured.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    job: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            job: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the job identifier stamped on spans opened from now on.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.stack.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            job: self.job,
        });
        self.stack.push(index);
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans[index].start_ns = start;
        self.spans[index].end_ns = end;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            own[p] = own[p].saturating_sub(hi.saturating_sub(lo));
        }
    }
    own
}

/// The layer (module name) a span name is charged to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "gds" => "gds",
        "tile" => "tile",
        "drc" => "drc",
        "ca" => "yieldsim",
        "litho" => "litho",
        "job" => "job",
        "report" => "report",
        "ckpt" => "checkpoint",
        "cache" => "cache",
        "proto" => "proto",
        "codec" => "codec",
        _ => "harness",
    }
}

/// Per-name durations in ms of every span with that name, in record order.
pub fn durations_ms(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64 / 1e6);
    }
    out
}

/// Σ self time in ms per layer over the spans of job `job`.
pub fn layer_self_ms(spans: &[Span], job: u64) -> BTreeMap<&'static str, f64> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (span, ns) in spans.iter().zip(own) {
        if span.job == job {
            *out.entry(layer_of(span.name)).or_default() += ns as f64 / 1e6;
        }
    }
    out
}

/// The span list as the JSON written to `out/trace_<workload>.json`.
pub fn to_json(spans: &[Span]) -> JsonValue {
    JsonValue::Arr(
        spans
            .iter()
            .map(|s| {
                JsonValue::obj([
                    ("name", JsonValue::str(s.name)),
                    ("start_ns", JsonValue::Num(s.start_ns as f64)),
                    ("end_ns", JsonValue::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent
                            .map_or(JsonValue::Null, |p| JsonValue::Num(p as f64)),
                    ),
                    ("job", JsonValue::Num(s.job as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // job [0,100) > compute [10,90) > {drc [10,50), ca [50,70)}
        let spans = vec![
            span("job.replay", 0, 100, None),
            span("job.compute_tile", 10, 90, Some(0)),
            span("drc.rule_tile", 10, 50, Some(1)),
            span("ca.tile", 50, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20]);
        let layers = layer_self_ms(&spans, 1);
        assert_eq!(layers["job"], 40.0 / 1e6);
        assert_eq!(layers["drc"], 40.0 / 1e6);
        assert_eq!(layers["yieldsim"], 20.0 / 1e6);
        let total: f64 = layers.values().sum();
        assert!(
            (total - 100.0 / 1e6).abs() < 1e-15,
            "self times add up to the root span"
        );
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_job(7);
        let v = t.span("job.replay", |t| t.span("gds.parse", |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].job, 7);
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("job.replay", |t| t.span("gds.parse", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn span_names_map_to_module_layers() {
        assert_eq!(layer_of("ca.tile"), "yieldsim");
        assert_eq!(layer_of("ckpt.write_tile"), "checkpoint");
        assert_eq!(layer_of("replay"), "harness");
    }
}
