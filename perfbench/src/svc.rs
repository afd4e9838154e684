//! The service workloads `mixed`, `batched` and `durable`: two closed-loop
//! client threads calling `QueueService` through its public API.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

use obs::Recorder;
use service::{QueueId, QueueService, Request, Response, ServiceBuilder, ServiceError};

use crate::stats::{peak_rss_mb, windows_for, Ledger, Rng, Windows};
use crate::trace::{maybe_span, Tracer};

/// Client threads per workload (the host this was tuned on has 2 cores).
pub const CLIENTS: usize = 2;
/// Keys an `extract_k` asks for.
pub const EXTRACT_K: usize = 8;
/// Keys in a side queue melded into a hot queue (`batched`).
pub const MELD_KEYS: usize = 8;
/// One window in this many ends with a side-queue meld (`batched`).
const MELD_EVERY_WINDOWS: u64 = 16;

/// What a service workload runs against.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub queues: usize,
    pub preload: usize,
    /// Requests a client deposits with `enqueue` before it waits on their
    /// tickets; 0 means one synchronous call at a time.
    pub window: usize,
    pub durable: bool,
    /// Client ops, counted from the start of the warm-up, after which
    /// `peak_rss_mb` is read; 0 reads it at the end of the measured phase.
    /// A footprint that grows with the work done is read after a fixed
    /// amount of work, so the figure does not follow the host's speed.
    pub rss_ops: u64,
}

/// 64 shared queues at a 4096-key steady depth, synchronous calls: the
/// uncontended fast path and the single-op pool kernels.
pub const MIXED: Shape = Shape {
    queues: 64,
    preload: 4096,
    window: 0,
    durable: false,
    rss_ops: 0,
};
/// 8 hot queues at 32k keys, 64-request windows: ingress, batch grouping,
/// bulk builds, multi-extracts and melds.
pub const BATCHED: Shape = Shape {
    queues: 8,
    preload: 32 * 1024,
    window: 64,
    durable: false,
    // The pool's bulk builds never reuse freed slab slots, so the footprint
    // grows by about 40 bytes per client op. Eight million ops take 12-17 s
    // at this workload's usual 480-650k ops/s, well inside the warm-up plus
    // a measured phase of the default length.
    rss_ops: 8_000_000,
};
/// `mixed` against a durable service: the same kernels plus the WAL.
pub const DURABLE: Shape = Shape {
    durable: true,
    ..MIXED
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Insert(i64),
    ExtractMin,
    ExtractK,
    Peek,
    Len,
}

impl Op {
    fn span_name(self) -> &'static str {
        match self {
            Op::Insert(_) => "service.insert",
            Op::ExtractMin => "service.extract_min",
            Op::ExtractK => "service.extract_k",
            Op::Peek => "service.peek_min",
            Op::Len => "service.len",
        }
    }
}

/// One client's seeded op stream. The mix is 54% insert, 30% extract_min,
/// 3% extract_k(8), 10% peek and 3% len: 0.54 keys in and
/// 0.30 + 0.03 × 8 = 0.54 keys out per op, so every queue holds its
/// preload depth up to a random walk.
pub struct OpGen {
    rng: Rng,
    queues: u64,
}

impl OpGen {
    pub fn new(seed: u64, client: usize, queues: usize) -> OpGen {
        OpGen {
            rng: Rng::new(seed, client as u64 + 1),
            queues: queues as u64,
        }
    }

    pub fn key(&mut self) -> i64 {
        (self.rng.next_u64() >> 16) as i64
    }

    pub fn queue(&mut self) -> usize {
        self.rng.below(self.queues) as usize
    }

    pub fn next_op(&mut self) -> (usize, Op) {
        let q = self.queue();
        let op = match self.rng.below(100) {
            0..=53 => Op::Insert(self.key()),
            54..=83 => Op::ExtractMin,
            84..=86 => Op::ExtractK,
            87..=96 => Op::Peek,
            _ => Op::Len,
        };
        (q, op)
    }

    /// Whether the window just served ends with a side-queue meld.
    pub fn meld_due(&mut self) -> bool {
        self.rng.below(MELD_EVERY_WINDOWS) == 0
    }

    /// The side-queue meld's target queue and keys, in stream order.
    pub fn side_meld(&mut self) -> (usize, Vec<i64>) {
        let hot = self.queue();
        (hot, (0..MELD_KEYS).map(|_| self.key()).collect())
    }
}

/// The seeded preload of every queue.
pub fn preload_keys(seed: u64, shape: &Shape) -> Vec<Vec<i64>> {
    (0..shape.queues)
        .map(|q| {
            let mut r = Rng::new(seed, 1_000_000 + q as u64);
            (0..shape.preload)
                .map(|_| (r.next_u64() >> 16) as i64)
                .collect()
        })
        .collect()
}

fn builder(dir: Option<&Path>) -> ServiceBuilder {
    match dir {
        Some(d) => ServiceBuilder::new().durable(d),
        None => ServiceBuilder::new(),
    }
}

pub struct Setup {
    pub svc: QueueService,
    pub ids: Vec<QueueId>,
    /// Per-queue ledger of the preload.
    pub ledgers: Vec<Ledger>,
    pub secs: f64,
}

/// Build the service, create the queues and preload them. The preload keys
/// are generated before the clock starts; everything timed is a call into
/// the program, including the first-use cutoff calibration inside
/// `ServiceBuilder`.
pub fn setup(shape: &Shape, seed: u64, dir: Option<&Path>) -> Result<Setup, String> {
    let keys = preload_keys(seed, shape);
    let ledgers = keys.iter().map(|k| Ledger::of(k)).collect();
    let t0 = Instant::now();
    let svc = builder(dir)
        .try_build()
        .map_err(|e| format!("service build failed: {e}"))?;
    let ids: Vec<QueueId> = (0..shape.queues).map(|_| svc.create_queue()).collect();
    for (id, k) in ids.iter().zip(keys) {
        svc.multi_insert(*id, k)
            .map_err(|e| format!("preload failed: {e}"))?;
    }
    Ok(Setup {
        svc,
        ids,
        ledgers,
        secs: t0.elapsed().as_secs_f64(),
    })
}

/// Reopen a durable service's directory: the restart `recover_s` times.
pub fn reopen(dir: &Path) -> Result<QueueService, String> {
    builder(Some(dir))
        .try_build()
        .map_err(|e| format!("durable reopen failed: {e}"))
}

/// What the clients saw in one measured phase.
pub struct Tally {
    pub lat: Windows,
    pub ops: u64,
    pub failed: u64,
    pub pops: u64,
    pub empty_pops: u64,
}

impl Tally {
    fn new(measure: Duration) -> Tally {
        Tally {
            lat: windows_for(measure),
            ops: 0,
            failed: 0,
            pops: 0,
            empty_pops: 0,
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.lat.merge(&o.lat);
        self.ops += o.ops;
        self.failed += o.failed;
        self.pops += o.pops;
        self.empty_pops += o.empty_pops;
    }
}

pub struct Client {
    id: u64,
    gen: OpGen,
    next_trace: u64,
    /// Ops completed in the current phase, warm-up included.
    done: u64,
    /// Present while a phase measures; warm-up ops only move the ledgers.
    tally: Option<Tally>,
    /// Keys this client put into (+) and took out of (−) each queue.
    pub ledgers: Vec<Ledger>,
    pub errors: Vec<String>,
}

fn call_sync(svc: &QueueService, id: QueueId, op: Op) -> Result<Response, ServiceError> {
    Ok(match op {
        Op::Insert(key) => {
            svc.insert(id, key)?;
            Response::Done
        }
        Op::ExtractMin => Response::Key(svc.extract_min(id)?),
        Op::ExtractK => Response::Keys(svc.extract_k(id, EXTRACT_K)?),
        Op::Peek => Response::Key(svc.peek_min(id)?),
        Op::Len => Response::Len(svc.len(id)?),
    })
}

fn request(queue: QueueId, op: Op) -> Request {
    match op {
        Op::Insert(key) => Request::Insert { queue, key },
        Op::ExtractMin => Request::ExtractMin { queue },
        Op::ExtractK => Request::ExtractK {
            queue,
            k: EXTRACT_K,
        },
        Op::Peek => Request::PeekMin { queue },
        Op::Len => Request::Len { queue },
    }
}

impl Client {
    pub fn new(seed: u64, id: usize, queues: usize) -> Client {
        Client {
            id: id as u64,
            gen: OpGen::new(seed, id, queues),
            next_trace: 0,
            done: 0,
            tally: None,
            ledgers: vec![Ledger::default(); queues],
            errors: Vec::new(),
        }
    }

    fn trace_id(&mut self) -> u64 {
        self.next_trace += 1;
        (self.id << 48) | self.next_trace
    }

    /// Keep the first few correctness errors; one is enough to fail a run.
    fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }

    /// Count one op begun at `t0` that has just completed.
    fn record(&mut self, t0: Instant, failed: bool) {
        self.done += 1;
        if let Some(t) = &mut self.tally {
            let end = Instant::now();
            t.ops += 1;
            t.failed += u64::from(failed);
            t.lat.record(end, (end - t0).as_nanos() as u64);
        }
    }

    /// Fold one answer into the ledger and the tally. A refused op counts
    /// as failed; an answer of the wrong shape or an unsorted multi-extract
    /// is a correctness error.
    fn settle(&mut self, q: usize, op: Op, resp: Result<Response, ServiceError>, t0: Instant) {
        let resp = match resp {
            Ok(Response::Err(e)) | Err(e) => {
                self.record(t0, true);
                self.error(format!("{op:?} on queue {q} refused: {e}"));
                return;
            }
            Ok(r) => r,
        };
        self.record(t0, false);
        let short = match (&op, &resp) {
            (Op::ExtractMin, Response::Key(k)) => Some(k.is_none()),
            (Op::ExtractK, Response::Keys(v)) => Some(v.len() < EXTRACT_K),
            _ => None,
        };
        if let (Some(t), Some(short)) = (&mut self.tally, short) {
            t.pops += 1;
            t.empty_pops += u64::from(short);
        }
        match (op, resp) {
            (Op::Insert(k), Response::Done) => self.ledgers[q].add(k),
            (Op::ExtractMin, Response::Key(k)) => {
                if let Some(k) = k {
                    self.ledgers[q].remove(k);
                }
            }
            (Op::ExtractK, Response::Keys(v)) => {
                if !v.is_sorted() {
                    self.error(format!("extract_k on queue {q}: unsorted {v:?}"));
                }
                v.iter().for_each(|&k| self.ledgers[q].remove(k));
            }
            (Op::Peek, Response::Key(_)) | (Op::Len, Response::Len(_)) => {}
            (op, r) => self.error(format!("{op:?} answered {r:?}")),
        }
    }

    fn one_sync(&mut self, svc: &QueueService, ids: &[QueueId], tr: &mut Option<Tracer>) {
        let (q, op) = self.gen.next_op();
        let trace = self.trace_id();
        if let Some(t) = tr.as_mut() {
            t.begin("bench.op", trace);
        }
        let t0 = Instant::now();
        let resp = maybe_span(tr, op.span_name(), trace, || call_sync(svc, ids[q], op));
        self.settle(q, op, resp, t0);
        if let Some(t) = tr.as_mut() {
            t.end();
        }
    }

    /// Deposit a window of requests, then wait on every ticket. A request's
    /// latency runs from its enqueue to its `Ticket::wait` returning.
    fn one_window(
        &mut self,
        svc: &QueueService,
        ids: &[QueueId],
        window: usize,
        tr: &mut Option<Tracer>,
    ) {
        let trace = self.trace_id();
        if let Some(t) = tr.as_mut() {
            t.begin("bench.window", trace);
        }
        let mut pending = Vec::with_capacity(window);
        for _ in 0..window {
            let (q, op) = self.gen.next_op();
            let t0 = Instant::now();
            match maybe_span(tr, "service.enqueue", trace, || {
                svc.enqueue(request(ids[q], op))
            }) {
                Ok(ticket) => pending.push((q, op, t0, ticket)),
                Err(e) => self.settle(q, op, Err(e), t0),
            }
        }
        for (q, op, t0, ticket) in pending {
            let resp = maybe_span(tr, "service.wait", trace, || ticket.wait());
            self.settle(q, op, Ok(resp), t0);
        }
        if self.gen.meld_due() {
            self.side_meld(svc, ids, trace, tr);
        }
        if let Some(t) = tr.as_mut() {
            t.end();
        }
    }

    /// Build a small side queue with `multi_insert`, meld it into a hot
    /// queue (same shard or not, as round-robin placement falls), then take
    /// as many keys back out so the hot queue's depth holds.
    fn side_meld(
        &mut self,
        svc: &QueueService,
        ids: &[QueueId],
        trace: u64,
        tr: &mut Option<Tracer>,
    ) {
        let (hot, keys) = self.gen.side_meld();
        let side = maybe_span(tr, "service.create_queue", trace, || svc.create_queue());
        let t0 = Instant::now();
        let r = maybe_span(tr, "service.multi_insert", trace, || {
            svc.multi_insert(side, keys.clone())
        });
        self.record(t0, r.is_err());
        if let Err(e) = r {
            self.error(format!("side queue multi_insert failed: {e}"));
            return;
        }
        let t0 = Instant::now();
        let r = maybe_span(tr, "service.meld", trace, || svc.meld(ids[hot], side));
        self.record(t0, r.is_err());
        match r {
            Ok(()) => keys.iter().for_each(|&k| self.ledgers[hot].add(k)),
            Err(e) => self.error(format!("side meld into queue {hot} failed: {e}")),
        }
        let t0 = Instant::now();
        let resp = maybe_span(tr, "service.extract_k", trace, || {
            call_sync(svc, ids[hot], Op::ExtractK)
        });
        self.settle(hot, Op::ExtractK, resp, t0);
    }

    fn step(
        &mut self,
        svc: &QueueService,
        ids: &[QueueId],
        shape: &Shape,
        tr: &mut Option<Tracer>,
    ) {
        if shape.window == 0 {
            self.one_sync(svc, ids, tr);
        } else {
            self.one_window(svc, ids, shape.window, tr);
        }
    }
}

/// One measured phase across all clients.
pub struct Phase {
    pub tally: Tally,
    pub wall: Duration,
    pub tracer: Option<Tracer>,
    /// VmHWM in MB once the clients had done `Shape::rss_ops` ops, if the
    /// shape sets it and the phase got that far.
    pub rss_mb: Option<f64>,
}

impl Phase {
    /// Ops over the whole phase's wall time (the windows' median is the
    /// reported throughput; this one compares phases of one run).
    pub fn mean_ops_s(&self) -> f64 {
        self.tally.ops as f64 / self.wall.as_secs_f64()
    }
}

/// Warm up for `warm`, then measure for `measure`, with every client
/// starting each part together. Warm-up ops move the ledgers but not the
/// tally. The client whose step takes the phase past `shape.rss_ops` ops
/// reads the peak RSS.
pub fn run_phase(
    svc: &QueueService,
    ids: &[QueueId],
    shape: &Shape,
    clients: &mut [Client],
    warm: Duration,
    measure: Duration,
    traced: bool,
) -> Phase {
    let barrier = Barrier::new(clients.len());
    let epoch = Instant::now();
    let done = AtomicU64::new(0);
    let rss = OnceLock::new();
    let per_client: Vec<(Instant, Instant, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|c| {
                let (barrier, done, rss) = (&barrier, &done, &rss);
                s.spawn(move || {
                    c.done = 0;
                    let step = |c: &mut Client, tr: &mut Option<Tracer>| {
                        let before = c.done;
                        c.step(svc, ids, shape, tr);
                        if shape.rss_ops > 0 && rss.get().is_none() {
                            let n = c.done - before;
                            if done.fetch_add(n, Ordering::Relaxed) + n >= shape.rss_ops {
                                let _ = rss.set(peak_rss_mb());
                            }
                        }
                    };
                    barrier.wait();
                    let warm_end = Instant::now() + warm;
                    while Instant::now() < warm_end {
                        step(c, &mut None);
                    }
                    let mut tr = traced.then(|| Tracer::new(epoch, c.id as u32));
                    barrier.wait();
                    let start = Instant::now();
                    let mut t = Tally::new(measure);
                    t.lat.open(start);
                    c.tally = Some(t);
                    let deadline = start + measure;
                    while Instant::now() < deadline {
                        step(c, &mut tr);
                    }
                    (start, Instant::now(), tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = per_client.iter().map(|p| p.0).min().expect("clients");
    let end = per_client.iter().map(|p| p.1).max().expect("clients");
    let mut tally = Tally::new(measure);
    for c in clients.iter_mut() {
        tally.merge(&c.tally.take().expect("measured"));
    }
    let mut tracer: Option<Tracer> = None;
    for (_, _, t) in per_client {
        match (&mut tracer, t) {
            (Some(acc), Some(t)) => acc.absorb(t),
            (None, t) => tracer = t,
            _ => {}
        }
    }
    Phase {
        tally,
        wall: end - start,
        tracer,
        rss_mb: rss.into_inner(),
    }
}

/// Every shard's `ShardStats` and arena counters, summed by name.
pub fn counters(svc: &QueueService) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for i in 0..svc.shard_count() {
        for (k, v) in svc.shard_stats(i).fields() {
            *m.entry(k).or_insert(0) += v;
        }
        let a = svc.arena_stats(i);
        *m.entry("allocs").or_insert(0) += a.allocs;
        *m.entry("copies").or_insert(0) += a.copies;
    }
    m
}

/// The expected content of every queue: its preload plus what each client
/// put in and took out.
pub fn expected(preload: &[Ledger], clients: &[Client]) -> Vec<Ledger> {
    let mut want = preload.to_vec();
    for c in clients {
        for (w, l) in want.iter_mut().zip(&c.ledgers) {
            w.merge(l);
        }
    }
    want
}

/// Current depth of every queue.
pub fn depths(svc: &QueueService, ids: &[QueueId]) -> Result<Vec<usize>, String> {
    ids.iter()
        .map(|id| svc.len(*id).map_err(|e| format!("len failed: {e}")))
        .collect()
}

/// Drain every queue and compare what comes out with the ledger. Returns
/// the number of keys drained.
pub fn drain_check(
    svc: &QueueService,
    ids: &[QueueId],
    want: &[Ledger],
    errors: &mut Vec<String>,
) -> u64 {
    let mut drained = 0;
    for (q, (id, want)) in ids.iter().zip(want).enumerate() {
        let got = match svc.len(*id).and_then(|n| svc.extract_k(*id, n)) {
            Ok(v) => v,
            Err(e) => {
                errors.push(format!("queue {q}: drain failed: {e}"));
                continue;
            }
        };
        drained += got.len() as u64;
        if !got.is_sorted() {
            errors.push(format!("queue {q}: drain came out unsorted"));
        }
        if Ledger::of(&got) != *want {
            errors.push(format!(
                "queue {q}: drained {} keys, the ledger expects {} and a different multiset",
                got.len(),
                want.count
            ));
        }
        if !matches!(svc.len(*id), Ok(0)) {
            errors.push(format!("queue {q}: not empty after the drain"));
        }
    }
    drained
}
