//! The `sssp` workload: Dijkstra with decrease-key on the §4 lazy engine
//! (`Backend::Lazy.make_decrease()`), over a seeded sparse graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use meldpq::lazy::OpKind;
use meldpq::{Backend, DecreaseKeyPq, LazyDecreasePq, PqHandle};

use crate::stats::{mix, windows_for, Rng, Windows};
use crate::trace::{maybe_span, Tracer};

/// Vertices of the graph.
pub const VERTICES: usize = 2048;
/// Random out-edges per vertex, on top of one edge to the next vertex that
/// keeps every vertex reachable.
const RANDOM_EDGES: usize = 3;
const MAX_WEIGHT: u64 = 1000;
/// A queue key is `distance << VERTEX_BITS | vertex`, so keys are distinct
/// and the popped key names its vertex.
const VERTEX_BITS: u32 = 20;
const UNREACHED: u64 = u64::MAX;

/// Adjacency in compressed rows: the edges of `v` are
/// `edges[start[v]..start[v + 1]]` as `(target, weight)`.
pub struct Graph {
    start: Vec<usize>,
    edges: Vec<(u32, u64)>,
}

impl Graph {
    pub fn generate(seed: u64) -> Graph {
        let mut rng = Rng::new(seed, 0x6EA9);
        let mut start = Vec::with_capacity(VERTICES + 1);
        let mut edges = Vec::with_capacity(VERTICES * (RANDOM_EDGES + 1));
        for v in 0..VERTICES {
            start.push(edges.len());
            edges.push((((v + 1) % VERTICES) as u32, 1 + rng.below(MAX_WEIGHT)));
            for _ in 0..RANDOM_EDGES {
                edges.push((rng.below(VERTICES as u64) as u32, 1 + rng.below(MAX_WEIGHT)));
            }
        }
        start.push(edges.len());
        Graph { start, edges }
    }

    fn out(&self, v: usize) -> &[(u32, u64)] {
        &self.edges[self.start[v]..self.start[v + 1]]
    }
}

/// Reference distances from `src` with `std::collections::BinaryHeap` and
/// skipped stale entries.
pub fn reference(g: &Graph, src: usize) -> Vec<u64> {
    let mut dist = vec![UNREACHED; VERTICES];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v] {
            continue;
        }
        for &(u, w) in g.out(v) {
            let nd = d + w;
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u as usize)));
            }
        }
    }
    dist
}

/// Order-sensitive fingerprint of a distance vector.
pub fn fingerprint(dist: &[u64]) -> u64 {
    dist.iter()
        .fold(0x51_7CC1_B727_220A, |h, &d| mix(h ^ d).rotate_left(7))
}

/// Per-client measurements of one phase.
pub struct Tally {
    pub lat: Windows,
    pub ops: u64,
    pub failed: u64,
    /// (source, fingerprint of the computed distances) per query.
    pub queries: Vec<(usize, u64)>,
    /// Lazy-engine ledger totals, read from `cost_log` (traced runs).
    pub cost_entries: u64,
    pub pram_time: u64,
    pub pram_work: u64,
    pub arrange_time: u64,
}

impl Tally {
    fn new(measure: Duration) -> Tally {
        Tally {
            lat: windows_for(measure),
            ops: 0,
            failed: 0,
            queries: Vec::new(),
            cost_entries: 0,
            pram_time: 0,
            pram_work: 0,
            arrange_time: 0,
        }
    }

    fn merge(&mut self, o: Tally) {
        self.lat.merge(&o.lat);
        self.ops += o.ops;
        self.failed += o.failed;
        self.queries.extend(o.queries);
        self.cost_entries += o.cost_entries;
        self.pram_time += o.pram_time;
        self.pram_work += o.pram_work;
        self.arrange_time += o.arrange_time;
    }
}

/// Time one queue call into the tally (and a span when tracing).
fn timed<R>(
    t: &mut Tally,
    tr: &mut Option<Tracer>,
    name: &'static str,
    trace: u64,
    f: impl FnOnce() -> R,
) -> R {
    let t0 = Instant::now();
    let r = maybe_span(tr, name, trace, f);
    let end = Instant::now();
    t.lat.record(end, (end - t0).as_nanos() as u64);
    t.ops += 1;
    r
}

/// One Dijkstra query: vertices enter the queue when first reached and
/// move up by decrease-key when a shorter path appears.
fn dijkstra<Q: DecreaseKeyPq<i64> + ?Sized>(
    q: &mut Q,
    g: &Graph,
    src: usize,
    t: &mut Tally,
    tr: &mut Option<Tracer>,
    trace: u64,
) -> Vec<u64> {
    let mut dist = vec![UNREACHED; VERTICES];
    let mut handle: Vec<Option<PqHandle>> = vec![None; VERTICES];
    let mut done = vec![false; VERTICES];
    let key = |d: u64, v: usize| ((d << VERTEX_BITS) | v as u64) as i64;
    dist[src] = 0;
    handle[src] = Some(timed(t, tr, "lazy.insert", trace, || {
        q.insert_handle(key(0, src))
    }));
    while let Some(k) = timed(t, tr, "lazy.extract_min", trace, || q.extract_min()) {
        let v = (k as u64 & ((1 << VERTEX_BITS) - 1)) as usize;
        let d = k as u64 >> VERTEX_BITS;
        done[v] = true;
        for &(u, w) in g.out(v) {
            let u = u as usize;
            let nd = d + w;
            if done[u] || nd >= dist[u] {
                continue;
            }
            dist[u] = nd;
            match handle[u] {
                None => {
                    handle[u] = Some(timed(t, tr, "lazy.insert", trace, || {
                        q.insert_handle(key(nd, u))
                    }));
                }
                Some(h) => {
                    if !timed(t, tr, "lazy.decrease_key", trace, || {
                        q.decrease_key(h, key(nd, u))
                    }) {
                        t.failed += 1;
                    }
                }
            }
        }
    }
    dist
}

/// Run queries from seeded sources on `clients` threads for `measure`
/// after `warm`. Traced phases run the concrete lazy queue so its
/// `cost_log` can be read; untraced ones go through the boxed
/// `Backend::Lazy` queue a user gets.
pub fn run_phase(
    g: &Graph,
    seed: u64,
    clients: usize,
    warm: Duration,
    measure: Duration,
    traced: bool,
    corrupt: bool,
) -> (Tally, Duration, Option<Tracer>) {
    let barrier = Barrier::new(clients);
    let epoch = Instant::now();
    let per_client: Vec<(Tally, Instant, Instant, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rng = Rng::new(seed, 0x5055 + c as u64 + 16 * u64::from(traced));
                    let p = std::thread::available_parallelism().map_or(2, |n| n.get());
                    barrier.wait();
                    let warm_end = Instant::now() + warm;
                    let mut scratch = Tally::new(warm);
                    while Instant::now() < warm_end {
                        let src = rng.below(VERTICES as u64) as usize;
                        let mut q = Backend::Lazy
                            .make_decrease()
                            .expect("lazy has decrease-key");
                        dijkstra(q.as_mut(), g, src, &mut scratch, &mut None, 0);
                    }
                    let mut tr = traced.then(|| Tracer::new(epoch, c as u32));
                    let mut t = Tally::new(measure);
                    barrier.wait();
                    let start = Instant::now();
                    t.lat.open(start);
                    let mut n = 0u64;
                    while start.elapsed() < measure {
                        let src = rng.below(VERTICES as u64) as usize;
                        n += 1;
                        let trace = ((c as u64) << 48) | n;
                        let mut dist = if traced {
                            let mut q = LazyDecreasePq::new(p);
                            tr.as_mut().expect("traced").begin("bench.query", trace);
                            let dist = dijkstra(&mut q, g, src, &mut t, &mut tr, trace);
                            tr.as_mut().expect("traced").end();
                            let log = q.heap().cost_log();
                            t.cost_entries += log.len() as u64;
                            for (kind, cost) in log {
                                t.pram_time += cost.time;
                                t.pram_work += cost.work;
                                if *kind == OpKind::ArrangeHeap {
                                    t.arrange_time += cost.time;
                                }
                            }
                            dist
                        } else {
                            let mut q = Backend::Lazy
                                .make_decrease()
                                .expect("lazy has decrease-key");
                            dijkstra(q.as_mut(), g, src, &mut t, &mut tr, trace)
                        };
                        if corrupt && n == 1 {
                            dist[(src + 1) % VERTICES] += 1;
                        }
                        t.queries.push((src, fingerprint(&dist)));
                    }
                    (t, start, Instant::now(), tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = per_client.iter().map(|p| p.1).min().expect("clients");
    let end = per_client.iter().map(|p| p.2).max().expect("clients");
    let mut tally = Tally::new(measure);
    let mut tracer: Option<Tracer> = None;
    for (t, _, _, tr) in per_client {
        tally.merge(t);
        match (&mut tracer, tr) {
            (Some(acc), Some(t)) => acc.absorb(t),
            (None, t) => tracer = t,
            _ => {}
        }
    }
    (tally, end - start, tracer)
}

/// Check every query's distances against the reference, computed here,
/// after the measured phase.
pub fn check(g: &Graph, queries: &[(usize, u64)], errors: &mut Vec<String>) {
    for &(src, fp) in queries {
        if fingerprint(&reference(g, src)) != fp {
            errors.push(format!(
                "distances from source {src} differ from the reference"
            ));
        }
    }
}
