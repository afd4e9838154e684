//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span has a name whose prefix before the first `.` is its layer
//! (`bench`, `service`, `pool`, `wal`, `lazy`), an id, its parent's id, the
//! id of the client operation it serves, and start and end times on the
//! tracer's clock. Self time is a span's duration minus the time its direct
//! children cover; it is folded into per-name and per-layer totals as each
//! span closes, so totals cover every span however long the run. Only the
//! first `KEEP` spans are kept whole, in memory, for the span file written
//! when the run ends.

use std::time::Instant;

use obs::json::J;

pub const LAYERS: [&str; 5] = ["bench", "service", "pool", "wal", "lazy"];

/// Whole spans retained per tracer for the span file.
const KEEP: usize = 20_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    span: Span,
    child_ns: u64,
}

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    next_id: u32,
    pub kept: Vec<Span>,
    pub names: Vec<(&'static str, NameTotal)>,
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

impl Tracer {
    /// A tracer on `epoch`'s clock; `lane` (the client or thread number)
    /// keeps span ids unique when tracers are merged.
    pub fn new(epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            epoch,
            stack: Vec::with_capacity(8),
            next_id: lane << 24,
            kept: Vec::with_capacity(KEEP),
            names: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, trace: u64) {
        let parent = self.stack.last().map_or(NO_PARENT, |o| o.span.id);
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let start_ns = self.now();
        self.stack.push(Open {
            span: Span {
                id,
                parent,
                trace,
                name,
                start_ns,
                end_ns: start_ns,
            },
            child_ns: 0,
        });
    }

    pub fn end(&mut self) {
        let end = self.now();
        let mut open = self.stack.pop().expect("end without begin");
        open.span.end_ns = end;
        let dur = end - open.span.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let name = open.span.name;
        let t = match self.names.iter_mut().find(|(n, _)| *n == name) {
            Some((_, t)) => t,
            None => {
                self.names.push((name, NameTotal::default()));
                &mut self.names.last_mut().expect("just pushed").1
            }
        };
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.kept.len() < KEEP {
            self.kept.push(open.span);
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, trace);
        let r = f();
        self.end();
        r
    }

    pub fn total(&self, name: &str) -> NameTotal {
        self.names
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(NameTotal::default, |(_, t)| *t)
    }

    /// Mean duration of the spans called `name`, in ns (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.total(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    /// Self time of every span of `layer`, in ns.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.names
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    /// Fold another tracer's totals and kept spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        for (name, t) in other.names {
            match self.names.iter_mut().find(|(n, _)| *n == name) {
                Some((_, mine)) => {
                    mine.count += t.count;
                    mine.total_ns += t.total_ns;
                    mine.self_ns += t.self_ns;
                }
                None => self.names.push((name, t)),
            }
        }
        let room = KEEP.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }
}

/// The span file: every kept span of every phase plus the per-name and
/// per-layer totals.
pub fn span_file(header: Vec<(&'static str, J)>, phases: &[(&'static str, &Tracer)]) -> J {
    let phase = |name: &'static str, t: &Tracer| {
        let totals = t
            .names
            .iter()
            .map(|(n, v)| {
                (
                    n.to_string(),
                    J::obj([
                        ("count", J::UInt(v.count)),
                        ("total_ns", J::UInt(v.total_ns)),
                        ("self_ns", J::UInt(v.self_ns)),
                    ]),
                )
            })
            .collect();
        let layers = LAYERS
            .iter()
            .map(|l| (format!("{l}_self_ns"), J::UInt(t.layer_self_ns(l))))
            .collect();
        let spans = t
            .kept
            .iter()
            .map(|s| {
                J::Arr(vec![
                    J::UInt(s.id as u64),
                    if s.parent == NO_PARENT {
                        J::Int(-1)
                    } else {
                        J::UInt(s.parent as u64)
                    },
                    J::UInt(s.trace),
                    J::Str(s.name.to_string()),
                    J::UInt(s.start_ns),
                    J::UInt(s.end_ns),
                ])
            })
            .collect();
        J::obj([
            ("phase", J::Str(name.to_string())),
            ("totals", J::Obj(totals)),
            ("layers", J::Obj(layers)),
            (
                "span_columns",
                J::Arr(
                    ["id", "parent", "trace", "name", "start_ns", "end_ns"]
                        .iter()
                        .map(|c| J::Str(c.to_string()))
                        .collect(),
                ),
            ),
            ("spans", J::Arr(spans)),
        ])
    };
    let mut pairs = header;
    pairs.push((
        "phases",
        J::Arr(phases.iter().map(|(n, t)| phase(n, t)).collect()),
    ));
    J::obj(pairs)
}

/// `f` inside a span when tracing, bare otherwise.
pub fn maybe_span<R>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    trace: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.span(name, trace, f),
        None => f(),
    }
}
