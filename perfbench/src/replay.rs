//! The traced replay: a service workload's seeded op stream, run on one
//! thread directly against the layers below the service — `HeapPool`
//! kernels and, for `durable`, `WalWriter`, checkpoints and `recover_dir`.
//!
//! The replay mirrors the service's own choices: one pool per shard with
//! queues placed round-robin, the WAL discipline of the fast path (append
//! and flush before the mutation, a checkpoint after every
//! [`CHECKPOINT_EVERY`] appends on a shard), and, for windowed streams, one
//! combiner batch per window grouped per queue (inserts as a bulk build at
//! or above the batch cutoff, all pop demand as one multi-extract).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use meldpq::wal::{self, WalOp, WalWriter};
use meldpq::{Engine, HeapPool, PooledHeap};

use crate::stats::Ledger;
use crate::svc::{preload_keys, Op, OpGen, Shape, CLIENTS, EXTRACT_K};
use crate::trace::Tracer;

/// The service's automatic checkpoint cadence, in logged ops per shard.
const CHECKPOINT_EVERY: u64 = 1024;

struct ShardLog {
    writer: WalWriter,
    dir: PathBuf,
    since: u64,
}

pub struct ReplayOut {
    pub tracer: Tracer,
    pub ops: u64,
    pub wall: Duration,
    pub keys_built: u64,
    pub keys_multi_extracted: u64,
    /// Bytes of keys handed in by inserts during the measured replay.
    pub user_bytes: u64,
    /// WAL bytes appended plus checkpoint bytes written meanwhile.
    pub log_bytes: u64,
    pub recover_ms: f64,
    pub errors: Vec<String>,
}

struct Replay<'a> {
    shape: &'a Shape,
    pools: Vec<HeapPool<i64>>,
    heaps: Vec<PooledHeap>,
    ledgers: Vec<Ledger>,
    logs: Vec<Option<ShardLog>>,
    bulk_threshold: usize,
    /// Round-robin cursor of queue creation, as in the service.
    next_shard: usize,
    tr: Tracer,
    /// The client op being replayed, for its spans.
    trace: u64,
    out_keys_built: u64,
    out_keys_multi: u64,
    user_bytes: u64,
    ckpt_bytes: u64,
    errors: Vec<String>,
}

impl Replay<'_> {
    fn shard_of(&self, q: usize) -> usize {
        q % self.pools.len()
    }

    fn slot_of(&self, q: usize) -> u32 {
        (q / self.pools.len()) as u32
    }

    /// Append and flush one record ahead of its mutation.
    fn log(&mut self, shard: usize, op: &WalOp) {
        let Some(l) = self.logs[shard].as_mut() else {
            return;
        };
        let (tr, trace) = (&mut self.tr, self.trace);
        let res = tr
            .span("wal.append", trace, || l.writer.append(op).map(|_| ()))
            .and_then(|()| tr.span("wal.flush", trace, || l.writer.flush()));
        l.since += 1;
        if let Err(e) = res {
            self.errors.push(format!("replay wal write failed: {e}"));
        }
    }

    fn maybe_checkpoint(&mut self, shard: usize) {
        let Some(l) = self.logs[shard].as_mut() else {
            return;
        };
        if l.since < CHECKPOINT_EVERY {
            return;
        }
        l.since = 0;
        let shards = self.pools.len();
        let pool = &self.pools[shard];
        let heaps = self
            .heaps
            .iter()
            .enumerate()
            .filter(|(q, _)| q % shards == shard)
            .map(|(q, h)| ((q / shards) as u32, 0u32, h));
        let res = self.tr.span("wal.checkpoint", self.trace, || {
            l.writer.sync()?;
            let seq = l.writer.next_seq() - 1;
            wal::write_checkpoint(&l.dir, seq, pool, heaps, &[])
        });
        match res.and_then(|()| std::fs::metadata(l.dir.join(wal::CHECKPOINT_FILE))) {
            Ok(m) => self.ckpt_bytes += m.len(),
            Err(e) => self.errors.push(format!("replay checkpoint failed: {e}")),
        }
    }

    fn insert_keys(&mut self, q: usize, keys: &[i64]) {
        let s = self.shard_of(q);
        let (pool, h) = (&mut self.pools[s], &mut self.heaps[q]);
        if keys.len() >= self.bulk_threshold {
            let built = self.tr.span("pool.bulk_build", self.trace, || {
                pool.from_keys_parallel(keys)
            });
            self.tr
                .span("pool.meld", self.trace, || pool.meld(h, built));
            self.out_keys_built += keys.len() as u64;
        } else {
            for &k in keys {
                self.tr
                    .span("pool.insert", self.trace, || pool.insert(h, k));
            }
        }
        keys.iter().for_each(|&k| self.ledgers[q].add(k));
        self.user_bytes += 8 * keys.len() as u64;
    }

    fn multi_extract(&mut self, q: usize, k: usize) {
        let s = self.shard_of(q);
        let (pool, h) = (&mut self.pools[s], &mut self.heaps[q]);
        let got = self.tr.span("pool.multi_extract", self.trace, || {
            pool.multi_extract_min(h, k)
        });
        self.out_keys_multi += got.len() as u64;
        got.iter().for_each(|&k| self.ledgers[q].remove(k));
    }

    fn peek(&mut self, q: usize) {
        let s = self.shard_of(q);
        let (pool, h) = (&self.pools[s], &self.heaps[q]);
        std::hint::black_box(self.tr.span("pool.min", self.trace, || pool.min(h)));
    }

    /// One synchronous op, logged like the service's fast path.
    fn sync_op(&mut self, q: usize, op: Op) {
        let (s, slot) = (self.shard_of(q), self.slot_of(q));
        match op {
            Op::Insert(key) => {
                self.log(s, &WalOp::Insert { slot, key });
                let (pool, h) = (&mut self.pools[s], &mut self.heaps[q]);
                self.tr
                    .span("pool.insert", self.trace, || pool.insert(h, key));
                self.ledgers[q].add(key);
                self.user_bytes += 8;
            }
            Op::ExtractMin => {
                self.log(s, &WalOp::ExtractMin { slot });
                let (pool, h) = (&mut self.pools[s], &mut self.heaps[q]);
                if let Some(k) = self
                    .tr
                    .span("pool.extract_min", self.trace, || pool.extract_min(h))
                {
                    self.ledgers[q].remove(k);
                }
            }
            Op::ExtractK => {
                let k = EXTRACT_K as u64;
                self.log(s, &WalOp::MultiExtractMin { slot, k });
                self.multi_extract(q, EXTRACT_K);
            }
            Op::Peek => self.peek(q),
            Op::Len => {
                std::hint::black_box(self.heaps[q].len());
            }
        }
        self.maybe_checkpoint(s);
    }

    /// One window as one combiner batch, grouped per queue in arrival
    /// order. Returns the client ops it stands for.
    fn window(&mut self, gen: &mut OpGen) -> u64 {
        let ops: Vec<(usize, Op)> = (0..self.shape.window).map(|_| gen.next_op()).collect();
        let mut order: Vec<usize> = Vec::new();
        for &(q, _) in &ops {
            if !order.contains(&q) {
                order.push(q);
            }
        }
        for q in order {
            let mine = ops.iter().filter(|(oq, _)| *oq == q).map(|(_, op)| *op);
            let keys: Vec<i64> = mine
                .clone()
                .filter_map(|op| match op {
                    Op::Insert(k) => Some(k),
                    _ => None,
                })
                .collect();
            let demand: usize = mine
                .clone()
                .map(|op| match op {
                    Op::ExtractMin => 1,
                    Op::ExtractK => EXTRACT_K,
                    _ => 0,
                })
                .sum();
            if !keys.is_empty() {
                self.insert_keys(q, &keys);
            }
            if demand > 0 {
                self.multi_extract(q, demand);
            }
            for _ in mine.filter(|op| *op == Op::Peek) {
                self.peek(q);
            }
        }
        if gen.meld_due() {
            self.side_meld(gen);
            // multi_insert, meld and extract_k, as the client counts them.
            return ops.len() as u64 + 3;
        }
        ops.len() as u64
    }

    /// The side-queue meld of a `batched` window: build with the
    /// multi-insert kernel on the side queue's shard, meld into the hot
    /// queue (zero-copy on one shard, counted moves across two), then take
    /// as many keys back out.
    fn side_meld(&mut self, gen: &mut OpGen) {
        let (hot, keys) = gen.side_meld();
        let shards = self.pools.len();
        let side_shard = self.next_shard % shards;
        self.next_shard += 1;
        let hot_shard = self.shard_of(hot);
        let mut side = self.pools[side_shard].new_heap();
        {
            let pool = &mut self.pools[side_shard];
            if keys.len() >= self.bulk_threshold {
                let built = self.tr.span("pool.bulk_build", self.trace, || {
                    pool.from_keys_parallel(&keys)
                });
                self.tr
                    .span("pool.meld", self.trace, || pool.meld(&mut side, built));
                self.out_keys_built += keys.len() as u64;
            } else {
                for &k in &keys {
                    self.tr
                        .span("pool.insert", self.trace, || pool.insert(&mut side, k));
                }
            }
        }
        let h = &mut self.heaps[hot];
        if side_shard == hot_shard {
            let pool = &mut self.pools[hot_shard];
            self.tr.span("pool.meld", self.trace, || pool.meld(h, side));
        } else {
            let [dst, src] = self
                .pools
                .get_disjoint_mut([hot_shard, side_shard])
                .expect("the shards differ");
            self.tr.span("pool.meld", self.trace, || {
                dst.meld_cross_pool(h, src, side)
            });
        }
        keys.iter().for_each(|&k| self.ledgers[hot].add(k));
        self.user_bytes += 8 * keys.len() as u64;
        self.multi_extract(hot, EXTRACT_K);
    }
}

/// Replay `shape`'s op stream for `budget`, then check the replayed heaps
/// (and, when durable, what `recover_dir` rebuilds from the logs) against
/// the replay's own ledger.
pub fn replay(
    shape: &Shape,
    seed: u64,
    shards: usize,
    bulk_threshold: usize,
    budget: Duration,
    dir: Option<&Path>,
) -> ReplayOut {
    let pools: Vec<HeapPool<i64>> = (0..shards).map(|_| HeapPool::new()).collect();
    let mut logs: Vec<Option<ShardLog>> = Vec::new();
    let mut errors = Vec::new();
    for s in 0..shards {
        logs.push(dir.and_then(|d| {
            let dir = d.join(format!("shard{s}"));
            let opened = std::fs::create_dir_all(&dir)
                .and_then(|()| WalWriter::create(&dir.join(wal::WAL_FILE)));
            match opened {
                Ok(writer) => Some(ShardLog {
                    writer,
                    dir,
                    since: 0,
                }),
                Err(e) => {
                    errors.push(format!("replay wal open failed: {e}"));
                    None
                }
            }
        }));
    }
    let heaps = (0..shape.queues)
        .map(|q| pools[q % shards].new_heap())
        .collect();
    let mut r = Replay {
        shape,
        pools,
        heaps,
        ledgers: vec![Ledger::default(); shape.queues],
        logs,
        bulk_threshold,
        next_shard: shape.queues,
        tr: Tracer::new(Instant::now(), 0),
        trace: 0,
        out_keys_built: 0,
        out_keys_multi: 0,
        user_bytes: 0,
        ckpt_bytes: 0,
        errors,
    };
    // Preload, logged like the service's queue creation and bulk preload;
    // its spans are dropped with the tracer that saw them.
    for (q, keys) in preload_keys(seed, shape).into_iter().enumerate() {
        let (s, slot) = (r.shard_of(q), r.slot_of(q));
        r.log(s, &WalOp::CreateHeap { slot, gen: 0 });
        r.log(
            s,
            &WalOp::FromKeys {
                slot,
                keys: keys.clone(),
            },
        );
        r.insert_keys(q, &keys);
    }
    r.tr = Tracer::new(Instant::now(), 0);
    (r.user_bytes, r.out_keys_built) = (0, 0);
    let logged_before: u64 = r
        .logs
        .iter()
        .flatten()
        .map(|l| l.writer.bytes_logged())
        .sum();

    let mut gens: Vec<OpGen> = (0..CLIENTS)
        .map(|c| OpGen::new(seed, c, shape.queues))
        .collect();
    let mut ops = 0u64;
    let start = Instant::now();
    let mut turn = 0usize;
    while start.elapsed() < budget {
        let gen = &mut gens[turn % CLIENTS];
        turn += 1;
        r.trace = turn as u64;
        r.tr.begin("bench.op", r.trace);
        if shape.window == 0 {
            let (q, op) = gen.next_op();
            r.sync_op(q, op);
            ops += 1;
        } else {
            ops += r.window(gen);
        }
        r.tr.end();
    }
    let wall = start.elapsed();
    let logged: u64 = r
        .logs
        .iter()
        .flatten()
        .map(|l| l.writer.bytes_logged())
        .sum();

    let mut recover_ms = 0.0;
    if let Some(d) = dir {
        for s in 0..shards {
            let t0 = Instant::now();
            match wal::recover_dir(&d.join(format!("shard{s}")), Engine::Sequential) {
                Ok(rec) => {
                    recover_ms += t0.elapsed().as_secs_f64() * 1e3;
                    let errs = check_recovered(&r, s, &rec);
                    r.errors.extend(errs);
                }
                Err(e) => r.errors.push(format!("replay recover_dir failed: {e}")),
            }
        }
    }
    for q in 0..shape.queues {
        let s = r.shard_of(q);
        let h = std::mem::replace(&mut r.heaps[q], r.pools[s].new_heap());
        let got = r.pools[s].into_sorted_vec(h);
        if Ledger::of(&got) != r.ledgers[q] || !got.is_sorted() {
            r.errors.push(format!(
                "replay queue {q}: heap content differs from the ledger"
            ));
        }
    }
    ReplayOut {
        tracer: r.tr,
        ops,
        wall,
        keys_built: r.out_keys_built,
        keys_multi_extracted: r.out_keys_multi,
        user_bytes: r.user_bytes,
        log_bytes: logged - logged_before + r.ckpt_bytes,
        recover_ms,
        errors: r.errors,
    }
}

/// Compare what `recover_dir` rebuilt for one shard with the replay's
/// ledgers of the queues on that shard.
fn check_recovered(r: &Replay, shard: usize, rec: &wal::RecoveredState) -> Vec<String> {
    let mut errors = Vec::new();
    for q in (shard..r.heaps.len()).step_by(r.pools.len()) {
        let slot = r.slot_of(q) as usize;
        let Some(Some((_, h))) = rec.heaps.get(slot) else {
            errors.push(format!("recovered shard {shard} lost queue {q}"));
            continue;
        };
        let mut ids = Vec::new();
        rec.pool.collect_node_ids(h, &mut ids);
        let keys: Vec<i64> = ids.iter().map(|&id| rec.pool.arena().get(id).key).collect();
        if Ledger::of(&keys) != r.ledgers[q] {
            errors.push(format!(
                "recovered queue {q} differs from the replay's ledger"
            ));
        }
    }
    errors
}
