//! One run of one workload: set-up, the measured phases, the correctness
//! checks, and the metrics they yield.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use obs::json::J;

use crate::replay::replay;
use crate::stats::{median, peak_rss_mb, Windows};
use crate::svc::{self, Client, Shape, CLIENTS};
use crate::trace::{span_file, Tracer};
use crate::{sssp, Args};

/// What a run hands back for printing.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Metric name, value and how many samples it rests on.
    pub metrics: Vec<(&'static str, f64, String)>,
    /// Human-readable lines printed with the metrics.
    pub notes: Vec<String>,
    pub spans: Option<J>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, samples: impl Into<String>) {
        self.metrics.push((name, value, samples.into()));
    }
}

/// The durable flush policy, stated with every `durable` result.
pub const DURABLE_POLICY: &str = "flush policy: the service's own -- every logged op is flushed \
     to the OS before it applies, sync_data only at checkpoints (every 1024 appends per shard); \
     figures are this host's page cache, not a device's";

/// Scratch space for durable directories and span files, inside the
/// directory the benchmark runs from.
pub fn work_dir() -> PathBuf {
    PathBuf::from(".perfbench")
}

/// Share of pops that may come back short before the depth counts as
/// drifted: the mix keeps queues at their preload, so short pops mean the
/// workload no longer measures what it claims to.
const MAX_EMPTY_POP_RATIO: f64 = 0.001;

/// Unmeasured ops before the measured phase. Throughput on the service
/// workloads climbs for several seconds after the preload (by about 12% on
/// `mixed` and 20% on `batched`) before it levels off; six seconds of
/// warm-up leave the measured windows flat.
fn warm_up(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.3).min(6.0))
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A durable directory of this process, emptied first.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let d = work_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Set-up alone, for the fresh-process set-up samples.
pub fn setup_only(workload: &str, seed: u64) -> Result<f64, String> {
    match workload {
        "sssp" => {
            let _graph = sssp::Graph::generate(seed);
            let t0 = Instant::now();
            let queues: Vec<_> = (0..CLIENTS)
                .map(|_| meldpq::Backend::Lazy.make_decrease())
                .collect();
            let secs = t0.elapsed().as_secs_f64();
            drop(queues);
            Ok(secs)
        }
        w => {
            let shape = shape_of(w);
            let dir = shape.durable.then(|| fresh_dir("setup"));
            // The service is dropped inside `map`, before its directory goes.
            let secs = svc::setup(&shape, seed, dir.as_deref()).map(|st| st.secs);
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
            secs
        }
    }
}

pub fn shape_of(workload: &str) -> Shape {
    match workload {
        "mixed" => svc::MIXED,
        "batched" => svc::BATCHED,
        "durable" => svc::DURABLE,
        w => unreachable!("not a service workload: {w}"),
    }
}

/// A service workload. `setup_samples` are set-up times measured in fresh
/// processes; this run's own set-up joins them.
pub fn run_service(name: &str, args: &Args, mut setup_samples: Vec<f64>) -> Report {
    let shape = shape_of(name);
    let mut rep = Report::default();
    let dir = shape.durable.then(|| fresh_dir("durable"));
    let st = match svc::setup(&shape, args.seed, dir.as_deref()) {
        Ok(st) => st,
        Err(e) => {
            rep.errors.push(e);
            return rep;
        }
    };
    setup_samples.push(st.secs);
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::new(args.seed, c, shape.queues))
        .collect();
    let total = Duration::from_secs_f64(args.seconds);
    let warm = warm_up(args.seconds);

    let last = if args.trace {
        traced_service(
            &mut rep,
            &shape,
            args,
            &st,
            &mut clients,
            total,
            warm,
            name == "mixed",
        )
    } else {
        let c0 = svc::counters(&st.svc);
        let ph = svc::run_phase(&st.svc, &st.ids, &shape, &mut clients, warm, total, false);
        let d = delta(svc::counters(&st.svc), &c0);
        let t = &ph.tally;
        latency_metrics(&mut rep, &t.lat, t.ops, ph.wall);
        rep.metric(
            "setup_s",
            median(&setup_samples),
            format!(
                "median of n={} set-ups, each in a fresh process",
                setup_samples.len()
            ),
        );
        rep.notes.push(format!(
            "error_ratio = {:.6} (failed or refused ops / attempted, n={})",
            ratio(t.failed as f64, t.ops as f64),
            t.ops
        ));
        if shape.window > 0 {
            rep.notes.push(format!(
                "health: coalesced insert share {:.4} ({} of {} inserted keys went through bulk builds)",
                ratio(d("coalesced_inserts"), d("coalesced_inserts") + d("single_inserts")),
                d("coalesced_inserts"), d("coalesced_inserts") + d("single_inserts")
            ));
        }
        ph
    };
    rep.attempted += last.tally.ops;
    rep.failed += last.tally.failed;
    let empty = ratio(last.tally.empty_pops as f64, last.tally.pops as f64);
    rep.notes.push(format!(
        "health: empty_pop_ratio {empty:.6} ({} of {} pops came back short)",
        last.tally.empty_pops, last.tally.pops
    ));
    if empty > MAX_EMPTY_POP_RATIO {
        rep.errors.push(format!(
            "{empty:.4} of pops found their queue (nearly) empty"
        ));
    }
    if !args.trace {
        // Taken while serving: the restart of `durable` reads the whole log,
        // whose length grows with the throughput just measured.
        match last.rss_mb {
            Some(mb) => rep.metric(
                "peak_rss_mb",
                mb,
                format!(
                    "n=1, VmHWM after {} client ops from the start of the warm-up",
                    shape.rss_ops
                ),
            ),
            None => rep.metric(
                "peak_rss_mb",
                peak_rss_mb(),
                if shape.rss_ops > 0 {
                    format!(
                        "n=1, VmHWM at the end of the measured phase, \
                         which ended before {} client ops",
                        shape.rss_ops
                    )
                } else {
                    "n=1, VmHWM at the end of the measured phase".to_string()
                },
            ),
        }
    }
    finish_service(&mut rep, &shape, args, st, &clients, dir.as_deref());
    rep
}

/// Depth health, the durable restart, and the drain against the ledger;
/// then the durable directory goes.
fn finish_service(
    rep: &mut Report,
    shape: &Shape,
    args: &Args,
    st: svc::Setup,
    clients: &[Client],
    dir: Option<&Path>,
) {
    check_service(rep, shape, args, st, clients, dir);
    if let Some(d) = dir {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn check_service(
    rep: &mut Report,
    shape: &Shape,
    args: &Args,
    st: svc::Setup,
    clients: &[Client],
    dir: Option<&Path>,
) {
    for c in clients {
        rep.errors.extend(c.errors.iter().cloned());
    }
    match svc::depths(&st.svc, &st.ids) {
        Ok(d) => {
            let min = d.iter().copied().min().unwrap_or(0);
            let mean = d.iter().sum::<usize>() as f64 / d.len() as f64;
            rep.notes.push(format!(
                "health: final depth mean {mean:.0}, min {min}, preload {} (mean/preload {:.3})",
                shape.preload,
                mean / shape.preload as f64
            ));
            if min < shape.preload / 4 {
                rep.errors.push(format!(
                    "depth drifted to {min} keys on some queue (preload {}): pops would run on near-empty heaps",
                    shape.preload
                ));
            }
        }
        Err(e) => rep.errors.push(e),
    }
    let mut want = svc::expected(&st.ledgers, clients);
    if args.corrupt {
        want[0].add(1);
    }
    let ids = st.ids;
    let mut svc = st.svc;
    if let Some(dir) = dir {
        drop(svc);
        let t0 = Instant::now();
        match svc::reopen(dir) {
            Ok(s) => svc = s,
            Err(e) => {
                rep.errors.push(e);
                return;
            }
        }
        let recover_s = t0.elapsed().as_secs_f64();
        rep.notes.push(format!(
            "recover_s = {recover_s:.6} s (n=1 reopen of the run's directory through try_build); \
             VmHWM after it {:.1} MB",
            peak_rss_mb()
        ));
        rep.notes.push(DURABLE_POLICY.to_string());
        if let Err(e) = svc.validate() {
            rep.errors
                .push(format!("recovered service fails validation: {e}"));
        }
    }
    let drained = svc::drain_check(&svc, &ids, &want, &mut rep.errors);
    rep.notes.push(format!(
        "check: drained {drained} keys from {} queues{} and compared them with the ledger",
        ids.len(),
        if dir.is_some() {
            " of the recovered service"
        } else {
            ""
        }
    ));
}

/// Counter growth since `before`, by counter name.
fn delta(
    now: BTreeMap<&'static str, u64>,
    before: &BTreeMap<&'static str, u64>,
) -> impl Fn(&str) -> f64 {
    let grown: BTreeMap<&str, u64> = now
        .into_iter()
        .map(|(k, v)| (k, v - before.get(k).copied().unwrap_or(0)))
        .collect();
    move |k| grown.get(k).copied().unwrap_or(0) as f64
}

/// The traced run of a service workload: an untraced phase, a traced phase
/// (spans around every service call) and the single-thread replay against
/// the pool and WAL, in equal parts of the time. With `lazy`, a fourth part
/// runs traced Dijkstra queries with decrease-key on the lazy engine (the
/// `sssp` script), checked against the reference, for the `lazy.*` figures.
#[allow(clippy::too_many_arguments)]
fn traced_service(
    rep: &mut Report,
    shape: &Shape,
    args: &Args,
    st: &svc::Setup,
    clients: &mut [Client],
    total: Duration,
    warm: Duration,
    lazy: bool,
) -> svc::Phase {
    let part = total / if lazy { 4 } else { 3 };
    let a = svc::run_phase(&st.svc, &st.ids, shape, clients, warm, part, false);
    let c0 = svc::counters(&st.svc);
    let b = svc::run_phase(&st.svc, &st.ids, shape, clients, Duration::ZERO, part, true);
    let d = delta(svc::counters(&st.svc), &c0);
    rep.attempted += a.tally.ops;
    rep.failed += a.tally.failed;
    let tb = b.tracer.as_ref().expect("traced phase");
    let ops_b = b.tally.ops as f64;

    let dir = shape.durable.then(|| fresh_dir("replay"));
    let bulk = meldpq::cutoff::batch_bulk_cutoff().max(2);
    let r = replay(
        shape,
        args.seed,
        st.svc.shard_count(),
        bulk,
        part,
        dir.as_deref(),
    );
    if let Some(d) = &dir {
        let _ = std::fs::remove_dir_all(d);
    }
    rep.errors.extend(r.errors.iter().cloned());
    let tr = &r.tracer;
    let rops = r.ops as f64;
    let kernel_ns = (tr.layer_self_ns("pool") + tr.layer_self_ns("wal")) as f64 / rops;

    for (name, counter) in [
        ("service.requests", "requests"),
        ("service.batches", "batches"),
        ("service.multi_extracts", "multi_extracts"),
        ("service.melds_same_shard", "melds_same_shard"),
        ("service.melds_cross_shard", "melds_cross_shard"),
        ("pool.copies", "copies"),
        ("wal.appends", "wal_appends"),
        ("wal.checkpoints", "wal_checkpoints"),
        ("wal.errors", "wal_errors"),
    ] {
        rep.metric(name, d(counter), "counter growth over the traced phase");
    }
    let inserted = d("coalesced_inserts") + d("single_inserts");
    rep.metric(
        "service.mean_batch",
        ratio(d("requests"), d("batches")),
        "requests / batches",
    );
    rep.metric(
        "service.coalesced_insert_share",
        ratio(d("coalesced_inserts"), inserted),
        "coalesced / inserted keys",
    );
    rep.metric(
        "service.keys_per_bulk_build",
        ratio(d("coalesced_inserts"), d("bulk_builds")),
        "coalesced keys / bulk builds",
    );
    rep.metric(
        "service.combine_busy_share",
        ratio(
            d("combine_ns"),
            b.wall.as_nanos() as f64 * st.svc.shard_count() as f64,
        ),
        "combiner ns / (wall ns x shards)",
    );
    rep.metric(
        "service.combine_ns_per_request",
        ratio(d("combine_ns"), d("requests")),
        "combiner ns / requests",
    );
    rep.metric(
        "service.overhead_ns_per_op",
        tb.layer_self_ns("service") as f64 / ops_b - kernel_ns,
        format!(
            "time in service calls per op (n={}) - replayed kernel time per op (n={})",
            b.tally.ops, r.ops
        ),
    );
    rep.metric(
        "pool.allocs_per_op",
        ratio(d("allocs"), ops_b),
        "arena allocs / client ops",
    );
    for (name, span, scale) in [
        ("pool.insert_ns", "pool.insert", 1.0),
        ("pool.extract_min_ns", "pool.extract_min", 1.0),
        ("pool.min_ns", "pool.min", 1.0),
        ("pool.meld_ns", "pool.meld", 1.0),
        ("wal.append_ns", "wal.append", 1.0),
        ("wal.flush_ns", "wal.flush", 1.0),
        ("wal.checkpoint_ms", "wal.checkpoint", 1e-6),
    ] {
        span_mean(rep, name, tr, span, scale);
    }
    for (name, span, keys) in [
        (
            "pool.bulk_build_ns_per_key",
            "pool.bulk_build",
            r.keys_built,
        ),
        (
            "pool.multi_extract_ns_per_key",
            "pool.multi_extract",
            r.keys_multi_extracted,
        ),
    ] {
        rep.metric(
            name,
            ratio(tr.total(span).total_ns as f64, keys as f64),
            format!("n={keys} keys"),
        );
    }
    rep.metric(
        "wal.checkpoint_share",
        ratio(
            tr.total("wal.checkpoint").total_ns as f64,
            r.wall.as_nanos() as f64,
        ),
        "checkpoint ns / replay wall ns",
    );
    rep.metric(
        "wal.bytes_per_user_byte",
        ratio(r.log_bytes as f64, r.user_bytes as f64),
        format!(
            "(wal + checkpoint bytes) / inserted key bytes, n={} B",
            r.user_bytes
        ),
    );
    rep.metric(
        "wal.recover_ms",
        r.recover_ms,
        "recover_dir of every replayed shard",
    );
    let lazy_phase = lazy.then(|| {
        let g = sssp::Graph::generate(args.seed);
        let (t, _, lt) = sssp::run_phase(
            &g,
            args.seed,
            CLIENTS,
            Duration::ZERO,
            part,
            true,
            args.corrupt,
        );
        sssp::check(&g, &t.queries, &mut rep.errors);
        rep.notes.push(format!(
            "check: {} lazy-engine queries compared with a BinaryHeap Dijkstra",
            t.queries.len()
        ));
        (t, lt.expect("traced phase"))
    });
    let mut phases = vec![(tb, ops_b), (tr, rops)];
    if let Some((t, lt)) = &lazy_phase {
        lazy_metrics(rep, t, lt);
        rep.attempted += t.ops;
        rep.failed += t.failed;
        phases.push((lt, t.ops as f64));
    }
    layer_self_times(rep, &phases);
    let (ops_a, ops_b) = (a.mean_ops_s(), b.mean_ops_s());
    rep.metric(
        "trace.overhead_ops_s",
        ops_b - ops_a,
        format!("traced {ops_b:.1} - untraced {ops_a:.1} ops/s"),
    );
    let mut parts = vec![("service_traced", tb), ("replay", tr)];
    if let Some((_, lt)) = &lazy_phase {
        parts.push(("lazy_queries_traced", lt));
    }
    rep.spans = Some(span_file(header(args), &parts));
    b
}

/// The mean duration of the spans called `span`, times `scale`, as metric
/// `name`.
fn span_mean(rep: &mut Report, name: &'static str, t: &Tracer, span: &str, scale: f64) {
    let n = t.total(span).count;
    rep.metric(name, t.mean_ns(span) * scale, format!("n={n} spans"));
}

/// Throughput and latency as medians over the phase's one-second windows.
fn latency_metrics(rep: &mut Report, lat: &Windows, ops: u64, wall: Duration) {
    let w = lat.len();
    rep.metric(
        "ops_s",
        lat.median_ops_s(),
        format!(
            "median of {w} windows; n={ops} ops in {:.3} s, {CLIENTS} clients, closed loop",
            wall.as_secs_f64()
        ),
    );
    for (name, q) in [("p50_us", 0.50), ("p99_us", 0.99)] {
        rep.metric(
            name,
            lat.median_quantile_ns(q) / 1e3,
            format!("median of {w} windows; n={ops}"),
        );
    }
}

/// Self time per client op of each layer, taken from the phase that calls
/// into it (the service from the traced service phase, the pool and WAL
/// from the replay, the lazy engine from the traced queries).
fn layer_self_times(rep: &mut Report, phases: &[(&Tracer, f64)]) {
    for (name, layer) in [
        ("selftime.service_ns_per_op", "service"),
        ("selftime.pool_ns_per_op", "pool"),
        ("selftime.wal_ns_per_op", "wal"),
        ("selftime.lazy_ns_per_op", "lazy"),
    ] {
        let (t, ops) = phases
            .iter()
            .find(|(t, _)| t.layer_self_ns(layer) > 0)
            .copied()
            .unwrap_or((phases[0].0, phases[0].1));
        rep.metric(
            name,
            ratio(t.layer_self_ns(layer) as f64, ops),
            "span self time / ops",
        );
    }
}

fn header(args: &Args) -> Vec<(&'static str, J)> {
    vec![
        ("workload", J::Str(args.workload.clone())),
        ("seed", J::UInt(args.seed)),
        ("provenance", J::Str(crate::provenance(args))),
    ]
}

/// The lazy engine's per-layer metrics from a traced phase of queries.
fn lazy_metrics(rep: &mut Report, t: &sssp::Tally, tr: &Tracer) {
    let ops = t.ops as f64;
    for (name, span) in [
        ("lazy.insert_ns", "lazy.insert"),
        ("lazy.extract_min_ns", "lazy.extract_min"),
        ("lazy.decrease_key_ns", "lazy.decrease_key"),
    ] {
        span_mean(rep, name, tr, span, 1.0);
    }
    rep.metric(
        "lazy.cost_log_len_per_op",
        ratio(t.cost_entries as f64, ops),
        format!("n={} entries", t.cost_entries),
    );
    rep.metric(
        "lazy.pram_time_per_op",
        ratio(t.pram_time as f64, ops),
        "cost_log PRAM time / ops",
    );
    rep.metric(
        "lazy.pram_work_per_op",
        ratio(t.pram_work as f64, ops),
        "cost_log PRAM work / ops",
    );
    rep.metric(
        "lazy.arrange_share",
        ratio(t.arrange_time as f64, t.pram_time as f64),
        "ArrangeHeap PRAM time / all PRAM time",
    );
}

/// The `sssp` workload, run by hand: it is not in `BENCHMARK.json`, whose
/// lazy-layer figures come from the traced run of `mixed`.
pub fn run_sssp(args: &Args, mut setup_samples: Vec<f64>) -> Report {
    let mut rep = Report::default();
    let g = sssp::Graph::generate(args.seed);
    match setup_only("sssp", args.seed) {
        Ok(s) => setup_samples.push(s),
        Err(e) => rep.errors.push(e),
    }
    let total = Duration::from_secs_f64(args.seconds);
    let warm = warm_up(args.seconds);
    let mut queries = Vec::new();
    if args.trace {
        let half = total / 2;
        let (a, wa, _) = sssp::run_phase(&g, args.seed, CLIENTS, warm, half, false, args.corrupt);
        let (b, wb, tr) =
            sssp::run_phase(&g, args.seed, CLIENTS, Duration::ZERO, half, true, false);
        let tr = tr.expect("traced phase");
        let (ops_a, ops_b) = (
            a.ops as f64 / wa.as_secs_f64(),
            b.ops as f64 / wb.as_secs_f64(),
        );
        lazy_metrics(&mut rep, &b, &tr);
        layer_self_times(&mut rep, &[(&tr, b.ops as f64)]);
        rep.metric(
            "trace.overhead_ops_s",
            ops_b - ops_a,
            format!("traced {ops_b:.1} - untraced {ops_a:.1} ops/s"),
        );
        rep.spans = Some(span_file(header(args), &[("queries_traced", &tr)]));
        rep.attempted = a.ops + b.ops;
        rep.failed = a.failed + b.failed;
        queries.extend(a.queries);
        queries.extend(b.queries);
    } else {
        let (t, wall, _) =
            sssp::run_phase(&g, args.seed, CLIENTS, warm, total, false, args.corrupt);
        latency_metrics(&mut rep, &t.lat, t.ops, wall);
        rep.notes
            .push(format!("{} Dijkstra queries", t.queries.len()));
        rep.metric(
            "setup_s",
            median(&setup_samples),
            format!(
                "median of n={} set-ups, each in a fresh process",
                setup_samples.len()
            ),
        );
        rep.notes.push(format!(
            "error_ratio = {:.6} (refused decrease-keys / attempted ops, n={})",
            ratio(t.failed as f64, t.ops as f64),
            t.ops
        ));
        rep.attempted = t.ops;
        rep.failed = t.failed;
        queries = t.queries;
    }
    sssp::check(&g, &queries, &mut rep.errors);
    rep.notes.push(format!(
        "check: {} queries compared with a BinaryHeap Dijkstra computed after the measured phase",
        queries.len()
    ));
    if !args.trace {
        rep.metric("peak_rss_mb", peak_rss_mb(), "n=1, VmHWM of the run");
    }
    rep
}
