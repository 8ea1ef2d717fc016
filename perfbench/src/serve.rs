//! `serve-read` and `serve-write`: the sharded embedding service under a
//! closed loop of Zipf-skewed lookups and pushes.
//!
//! Each rank of the group is one client: every call is a collective the
//! other rank joins, so a client issues its next request only when the
//! last one returned. A step is one trainer lookup, one Adagrad push of a
//! gradient for those ids, then `infer_per_step` inference lookups from
//! an independent stream. Ids and gradients come from seeded
//! [`ZipfSampler`] streams; the service only sees the generated batches.
//!
//! The loop warms the cache for a few steps, then runs blocks of steps
//! until the time budget is spent (rank 0 decides at each block end and
//! a barrier shares the decision). After the loop, outside the timing,
//! the final shards are checked bitwise against a world-1 uncached
//! service fed the same pushes in rank order.

use crate::metrics::{within_5pct, Outcome};
use crate::stats::{mean_of_medians, median, percentile, ratio};
use crate::{write_chrome_trace, Args};
use embrace_collectives::{mesh, run_group, Endpoint};
use embrace_models::ZipfSampler;
use embrace_obs::{recorder, Metrics, SpanSet};
use embrace_ps::{
    EmbeddingService, OptimizerKind, PartitionPolicy, PsError, PushTransport, ServiceConfig,
};
use embrace_tensor::{DenseTensor, RowSparse};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Read-heavy or write-heavy traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 1 lookup + 1 push + 8 inference lookups per step.
    Read,
    /// 1 lookup + 1 push per step, in larger batches.
    Write,
}

/// Problem size and traffic of a serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    pub mix: Mix,
    pub world: usize,
    pub vocab: usize,
    pub dim: usize,
    /// Hot-row cache capacity per rank.
    pub cache_rows: usize,
    /// Ids per lookup (and rows per pushed gradient), per rank.
    pub batch: usize,
    pub zipf_s: f64,
    pub infer_per_step: usize,
    /// Untimed steps that fill the cache before timing.
    pub warmup_steps: usize,
    /// Steps between stop decisions.
    pub block_steps: usize,
    /// Fewest timed steps per mode: enough pooled pushes for a p99.
    pub min_steps: usize,
    /// Shard builds whose median is `setup_s`.
    pub setup_reps: usize,
}

pub fn full(mix: Mix) -> ServeShape {
    ServeShape {
        mix,
        world: 2,
        vocab: 1 << 20,
        dim: 16,
        cache_rows: 2048,
        batch: if mix == Mix::Read { 512 } else { WRITE_BATCH },
        zipf_s: 1.05,
        infer_per_step: if mix == Mix::Read { 8 } else { 0 },
        warmup_steps: 16,
        block_steps: 8,
        min_steps: 504,
        setup_reps: 5,
    }
}

/// Ids per call of the write mix. At 512 ids a push takes ~150 us, most
/// of it cross-thread wake-ups whose cost swings with host load; 4096-id
/// calls keep the write path's own work in front.
const WRITE_BATCH: usize = 4096;
/// Magnitude of the generated gradient values.
const GRAD_SCALE: f32 = 0.01;
const ADAGRAD_LR: f32 = 0.05;
/// RNG stream tags, mixed into the seed per rank.
const TRAIN_STREAM: u64 = 0x7472_6169_6e00;
const INFER_STREAM: u64 = 0x696e_6665_7200;

impl ServeShape {
    fn config(&self, cache_rows: usize) -> ServiceConfig {
        ServiceConfig {
            vocab: self.vocab,
            dim: self.dim,
            policy: PartitionPolicy::Range,
            optimizer: OptimizerKind::Adagrad { lr: ADAGRAD_LR },
            cache_rows,
            push: PushTransport::Alltoallv,
        }
    }

    /// Global ids moved by one collective call.
    fn ids_per_call(&self) -> f64 {
        (self.batch * self.world) as f64
    }
}

fn rng(seed: u64, rank: usize, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seed-dependent initial table: every row distinct, cheap to build.
fn init_fn(seed: u64) -> impl Fn(u32, usize) -> f32 {
    let salt = (seed % 1021) as u32;
    move |row, col| (row.wrapping_mul(31).wrapping_add(col as u32 * 7 + salt) % 1024) as f32 * 1e-3
}

/// The next trainer batch: ids and a gradient for them, in that draw order.
fn train_input(sampler: &ZipfSampler, shape: &ServeShape, rng: &mut StdRng) -> RowSparse {
    let ids = sampler.sample_batch(shape.batch, rng);
    RowSparse::new(ids, DenseTensor::uniform(shape.batch, shape.dim, GRAD_SCALE, rng))
}

/// Endpoint (`transport.*`) and service (`ps.*`) counters: lifetime
/// totals, which add when merged across ranks.
fn read_counters(ep: &Endpoint, svc: &EmbeddingService) -> Metrics {
    let mut m = Metrics::new();
    ep.export_metrics(&mut m);
    svc.export_metrics(&mut m);
    m
}

/// Timings of one rank's blocks in one mode (untraced or traced).
#[derive(Default)]
struct Timings {
    lookup_s: Vec<f64>,
    push_s: Vec<f64>,
    /// Seconds inside service calls, generating inputs, at the stop
    /// barrier, and in total.
    in_calls_s: f64,
    input_s: f64,
    sync_s: f64,
    wall_s: f64,
    steps: usize,
}

impl Timings {
    fn calls(&self) -> usize {
        self.lookup_s.len() + self.push_s.len()
    }
}

/// One rank's share of a pass.
struct RankRun {
    plain: Timings,
    traced: Timings,
    /// The recorder's spans, one set per traced block.
    spans: Vec<SpanSet>,
    /// Steps run in total, warm-up included (the oracle replays them all).
    steps: usize,
    attempted: u64,
    errors: Vec<PsError>,
    /// Counters before and after the timed blocks.
    counters: [Metrics; 2],
    shard: DenseTensor,
}

/// Per-rank state of the closed loop.
struct Client<'a> {
    shape: &'a ServeShape,
    sampler: &'a ZipfSampler,
    svc: EmbeddingService,
    train_rng: StdRng,
    infer_rng: StdRng,
    /// `None` while warming up, else whether the block is traced.
    mode: Option<bool>,
    run: RankRun,
}

impl Client<'_> {
    fn timings(&mut self) -> Option<&mut Timings> {
        match self.mode {
            None => None,
            Some(false) => Some(&mut self.run.plain),
            Some(true) => Some(&mut self.run.traced),
        }
    }

    fn call<T>(
        &mut self,
        ep: &mut Endpoint,
        push: bool,
        f: impl FnOnce(&mut EmbeddingService, &mut Endpoint) -> Result<T, PsError>,
    ) -> bool {
        let t = Instant::now();
        let r = f(&mut self.svc, ep);
        let dt = t.elapsed().as_secs_f64();
        if let Some(tm) = self.timings() {
            tm.in_calls_s += dt;
            if push { &mut tm.push_s } else { &mut tm.lookup_s }.push(dt);
            self.run.attempted += 1;
        }
        match r {
            Ok(_) => true,
            Err(e) => {
                self.run.errors.push(e);
                false
            }
        }
    }

    /// One closed-loop step; false once a call failed.
    fn step(&mut self, ep: &mut Endpoint) -> bool {
        self.run.steps += 1;
        let t = Instant::now();
        let grad = train_input(self.sampler, self.shape, &mut self.train_rng);
        self.input_time(t);
        if !self.call(ep, false, |svc, ep| svc.try_lookup(ep, grad.indices()))
            || !self.call(ep, true, |svc, ep| svc.try_push(ep, &grad))
        {
            return false;
        }
        for _ in 0..self.shape.infer_per_step {
            let t = Instant::now();
            let ids = self.sampler.sample_batch(self.shape.batch, &mut self.infer_rng);
            self.input_time(t);
            if !self.call(ep, false, |svc, ep| svc.try_lookup(ep, &ids)) {
                return false;
            }
        }
        true
    }

    fn input_time(&mut self, since: Instant) {
        if let Some(tm) = self.timings() {
            tm.input_s += since.elapsed().as_secs_f64();
        }
    }
}

/// One closed-loop pass over a fresh service. With `traced`, odd blocks
/// run with the recorder installed, so untraced and traced blocks
/// alternate under the same host conditions.
fn pass(shape: &ServeShape, seed: u64, budget: Duration, traced: bool) -> Vec<RankRun> {
    let sampler = ZipfSampler::new(shape.vocab, shape.zipf_s);
    let cfg = shape.config(shape.cache_rows);
    let init = init_fn(seed);
    let (stop, failed) = (AtomicBool::new(false), AtomicBool::new(false));
    let barrier = Barrier::new(shape.world);
    run_group(shape.world, |rank, ep| {
        let mut c = Client {
            shape,
            sampler: &sampler,
            svc: EmbeddingService::new(rank, shape.world, &cfg, &init),
            train_rng: rng(seed, rank, TRAIN_STREAM),
            infer_rng: rng(seed, rank, INFER_STREAM),
            mode: None,
            run: RankRun {
                plain: Timings::default(),
                traced: Timings::default(),
                spans: Vec::new(),
                steps: 0,
                attempted: 0,
                errors: Vec::new(),
                counters: [Metrics::new(), Metrics::new()],
                shard: DenseTensor::zeros(0, 0),
            },
        };
        if !(0..shape.warmup_steps).all(|_| c.step(ep)) {
            failed.store(true, Ordering::SeqCst);
        }
        c.run.counters[0] = read_counters(ep, &c.svc);
        let start = Instant::now();
        for block in 0.. {
            let traced_block = traced && block % 2 == 1;
            if traced_block {
                recorder::install(&format!("rank{rank}"));
            }
            c.mode = Some(traced_block);
            let t0 = Instant::now();
            if !(0..shape.block_steps).all(|_| c.step(ep)) {
                failed.store(true, Ordering::SeqCst);
            }
            let t = Instant::now();
            c.timings().expect("timed block").steps += shape.block_steps;
            if rank == 0 {
                // Stop after a traced block (so both modes ran alike), once
                // the budget is spent and each mode has its minimum steps.
                let enough = |tm: &Timings| tm.steps >= shape.min_steps;
                let even = !traced || (traced_block && enough(&c.run.traced));
                let done = even && enough(&c.run.plain) && start.elapsed() >= budget;
                stop.store(done, Ordering::SeqCst);
            }
            // Every rank, failed or not, meets the barrier, then all read
            // one decision: no rank is left waiting on a peer that quit.
            barrier.wait();
            let done = stop.load(Ordering::SeqCst) || failed.load(Ordering::SeqCst);
            let tm = c.timings().expect("timed block");
            tm.sync_s += t.elapsed().as_secs_f64();
            tm.wall_s += t0.elapsed().as_secs_f64();
            if let Some(spans) = recorder::take() {
                c.run.spans.push(spans);
            }
            if done {
                break;
            }
        }
        c.run.counters[1] = read_counters(ep, &c.svc);
        c.run.shard = c.svc.shard_table().clone();
        c.run
    })
}

/// Replay every rank's pushes, in rank order, into a world-1 uncached
/// service and compare the final shards bit for bit.
fn oracle_check(shape: &ServeShape, seed: u64, runs: &[RankRun]) -> Result<(), String> {
    let steps = runs[0].steps;
    if runs.iter().any(|r| r.steps != steps) {
        return Err("ranks ran different step counts".into());
    }
    let sampler = ZipfSampler::new(shape.vocab, shape.zipf_s);
    let cfg = shape.config(0);
    let init = init_fn(seed);
    let mut ep = mesh(1).pop().expect("world-1 mesh");
    let mut svc = EmbeddingService::new(0, 1, &cfg, &init);
    // Regenerate each rank's pushes on its own thread (the draws dominate
    // the replay); apply them here in (step, rank) order.
    let replay = std::thread::scope(|scope| -> Result<(), PsError> {
        let feeds: Vec<Receiver<RowSparse>> = (0..shape.world)
            .map(|rank| {
                let (tx, rx) = sync_channel(64);
                let sampler = &sampler;
                scope.spawn(move || {
                    let mut rng = rng(seed, rank, TRAIN_STREAM);
                    for _ in 0..steps {
                        if tx.send(train_input(sampler, shape, &mut rng)).is_err() {
                            break;
                        }
                    }
                });
                rx
            })
            .collect();
        for _ in 0..steps {
            let parts: Vec<RowSparse> =
                feeds.iter().map(|rx| rx.recv().expect("generator runs every step")).collect();
            svc.try_push(&mut ep, &RowSparse::concat(&parts))?;
        }
        Ok(())
    });
    replay.map_err(|e| e.to_string())?;
    let oracle = svc.shard_table();
    let mut row0 = 0;
    for (rank, run) in runs.iter().enumerate() {
        let rows = run.shard.rows();
        let want = oracle.slice_rows(row0, row0 + rows);
        let same = want.len() == run.shard.len()
            && want
                .as_slice()
                .iter()
                .zip(run.shard.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("rank {rank} shard differs from the single-shard oracle"));
        }
        row0 += rows;
    }
    if row0 == shape.vocab {
        Ok(())
    } else {
        Err(format!("shards cover {row0} of {} rows", shape.vocab))
    }
}

/// Median wall time of building every rank's shard.
fn setup_seconds(shape: &ServeShape, seed: u64) -> f64 {
    let cfg = shape.config(shape.cache_rows);
    let init = init_fn(seed);
    let walls: Vec<f64> = (0..shape.setup_reps)
        .map(|_| {
            let t = Instant::now();
            let shards = run_group(shape.world, |rank, _| {
                EmbeddingService::new(rank, shape.world, &cfg, &init)
            });
            let wall = t.elapsed().as_secs_f64();
            drop(shards);
            wall
        })
        .collect();
    median(&walls)
}

pub fn run(shape: &ServeShape, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.lines.push(format!(
        "{:?} serving: world {} table {} x {} range/Adagrad, cache {} rows/rank, Zipf {} \
         batches of {} ids, {} inference lookups per step, seed {}",
        shape.mix,
        shape.world,
        shape.vocab,
        shape.dim,
        shape.cache_rows,
        shape.zipf_s,
        shape.batch,
        shape.infer_per_step,
        args.seed
    ));
    out.set("setup_s", setup_seconds(shape, args.seed));
    let runs = pass(shape, args.seed, args.budget, args.trace);
    out.attempted = runs.iter().map(|r| r.attempted).sum();
    out.failed = runs.iter().map(|r| r.errors.len() as u64).sum();
    for (rank, r) in runs.iter().enumerate() {
        if let Some(e) = r.errors.first() {
            out.lines.push(format!("rank {rank} call failed: {e}"));
        }
    }
    out.check(
        "final shards bitwise equal the world-1 uncached oracle",
        oracle_check(shape, args.seed, &runs),
    );
    let plain: Vec<&Timings> = runs.iter().map(|r| &r.plain).collect();
    let tokens_per_s = latencies(shape, &plain, "untraced", &mut out);
    counters(&runs, &mut out);
    if args.trace {
        let traced: Vec<&Timings> = runs.iter().map(|r| &r.traced).collect();
        let traced_tps = latencies(shape, &traced, "traced", &mut out);
        out.set("trace.overhead", ratio(tokens_per_s, traced_tps));
        layers(&runs, args, &mut out);
    }
    out
}

/// Fold one mode's call latencies into `out`; returns its ids per second
/// of rank-0 time inside service calls.
fn latencies(shape: &ServeShape, ranks: &[&Timings], mode: &str, out: &mut Outcome) -> f64 {
    let us = |pick: fn(&Timings) -> &Vec<f64>| -> Vec<Vec<f64>> {
        ranks.iter().map(|t| pick(t).iter().map(|s| s * 1e6).collect()).collect()
    };
    let (lookups, pushes) = (us(|t| &t.lookup_s), us(|t| &t.push_s));
    // Medians per client; the p99 pools both clients' samples.
    let mut p99 = |per_rank: &[Vec<f64>], what: &str| match percentile(&per_rank.concat(), 0.99) {
        Ok(v) => v,
        Err(e) => {
            out.check(&format!("{mode} {what} p99"), Err(e));
            0.0
        }
    };
    let lookup = [mean_of_medians(&lookups), p99(&lookups, "lookup")];
    let push = [mean_of_medians(&pushes), p99(&pushes, "push")];
    let samples = |per_rank: &[Vec<f64>]| per_rank.iter().map(Vec::len).sum::<usize>();
    let r0 = ranks[0];
    let tokens_per_s = ratio(r0.calls() as f64 * shape.ids_per_call(), r0.in_calls_s);
    let ops_per_s = ratio(r0.calls() as f64, r0.wall_s);
    out.lines.push(format!(
        "{mode}: {} steps, {} calls on rank 0; {tokens_per_s:.0} ids/s in calls, {ops_per_s:.0} \
         calls/s of loop; lookup p50 {:.1} p99 {:.1} us ({} samples); push p50 {:.1} p99 {:.1} us \
         ({} samples)",
        r0.steps,
        r0.calls(),
        lookup[0],
        lookup[1],
        samples(&lookups),
        push[0],
        push[1],
        samples(&pushes)
    ));
    if mode == "untraced" {
        out.set("tokens_per_s", tokens_per_s);
        out.set("op_p50_us", if shape.mix == Mix::Read { lookup[0] } else { push[0] });
        out.set("serve.ops_per_s", ops_per_s);
        out.set("serve.lookup_p50_us", lookup[0]);
        out.set("serve.lookup_p99_us", lookup[1]);
        out.set("serve.push_p50_us", push[0]);
        out.set("serve.push_p99_us", push[1]);
    }
    tokens_per_s
}

/// Cache, dedup and transport counters over the timed blocks.
fn counters(runs: &[RankRun], out: &mut Outcome) {
    let (mut before, mut after) = (Metrics::new(), Metrics::new());
    for r in runs {
        before.merge(&r.counters[0]);
        after.merge(&r.counters[1]);
    }
    let delta = |name: &str| (after.counter(name) - before.counter(name)) as f64;
    let calls = out.attempted as f64;
    let (hits, misses) = (delta("ps.cache.hits"), delta("ps.cache.misses"));
    let hit_rate = ratio(hits, hits + misses);
    let fetch_ratio = ratio(delta("ps.lookup.rows_fetched"), delta("ps.lookup.rows_served"));
    let bytes = delta("transport.bytes_sent");
    let msgs = delta("transport.msgs_sent");
    let retries = delta("transport.recv_retries");
    out.set("ps.cache.hit_rate", hit_rate);
    out.set("ps.cache.hits", hits);
    out.set("ps.cache.misses", misses);
    out.set("ps.lookup.fetch_ratio", fetch_ratio);
    out.set("transport.bytes_sent_per_call", ratio(bytes, calls));
    out.set("transport.msgs_sent_per_call", ratio(msgs, calls));
    out.set(
        "transport.copy_elimination_ratio",
        1.0 - ratio(delta("transport.bytes_copied"), bytes),
    );
    out.set("transport.recv_retries", retries);
    out.lines.push(format!(
        "cache hit rate {hit_rate:.3} ({hits} hits, {misses} misses); rows fetched/served \
         {fetch_ratio:.3}; {:.0} bytes and {:.2} messages sent per rank per call, {retries} \
         receive retries",
        ratio(bytes, calls),
        ratio(msgs, calls),
    ));
}

/// Per-layer breakdown of the traced blocks from the `ps_lookup` /
/// `ps_push` spans and their collective children.
fn layers(runs: &[RankRun], args: &Args, out: &mut Outcome) {
    // Per rank: lookup and push self times, in microseconds.
    let mut self_us = vec![[Vec::new(), Vec::new()]; runs.len()];
    let mut child: [(&str, &str, f64, u64); 3] = [
        ("alltoallv_tokens", "collectives.alltoallv_tokens.us_per_call", 0.0, 0),
        ("alltoall_dense", "collectives.alltoall_dense.us_per_call", 0.0, 0),
        ("alltoallv_sparse", "collectives.alltoallv_sparse.us_per_call", 0.0, 0),
    ];
    // Rank-0 exclusive seconds: lookup self, push self, then the three
    // collectives in `child` order.
    let mut excl0 = [0.0f64; 5];
    for (rank, r) in runs.iter().enumerate() {
        let mut credit = |slot: usize, secs: f64| {
            if rank == 0 {
                excl0[slot] += secs;
            }
        };
        for set in &r.spans {
            // (0 = lookup / 1 = push, self seconds so far) of the open call.
            let mut open: Option<(usize, f64)> = None;
            for s in set.spans() {
                match (s.depth, s.name.as_str()) {
                    (0, "ps_lookup" | "ps_push") => {
                        if let Some((kind, own)) = open.take() {
                            self_us[rank][kind].push(own * 1e6);
                            credit(kind, own);
                        }
                        open = Some((usize::from(s.name == "ps_push"), s.dur()));
                    }
                    (1, name) => {
                        if let Some((_, own)) = open.as_mut() {
                            *own -= s.dur();
                        }
                        if let Some(k) = child.iter().position(|c| c.0 == name) {
                            child[k].2 += s.dur();
                            child[k].3 += 1;
                            credit(2 + k, s.dur());
                        }
                    }
                    _ => {}
                }
            }
            if let Some((kind, own)) = open {
                self_us[rank][kind].push(own * 1e6);
                credit(kind, own);
            }
        }
    }
    for (kind, metric) in [(0, "ps.lookup.self_us.p50"), (1, "ps.push.self_us.p50")] {
        let per_rank: Vec<Vec<f64>> = self_us.iter().map(|k| k[kind].clone()).collect();
        out.set(metric, mean_of_medians(&per_rank));
    }
    for (_, metric, secs, calls) in child {
        out.set(metric, ratio(secs, calls as f64) * 1e6);
    }
    let t0 = &runs[0].traced;
    let accounted = excl0.iter().sum::<f64>() + t0.input_s + t0.sync_s;
    let coverage = ratio(accounted, t0.wall_s);
    out.set("layers.coverage", coverage);
    out.check("exclusive layer times sum to the traced wall time within 5%", within_5pct(coverage));
    let steps = t0.steps as f64;
    out.lines.push(format!(
        "rank-0 exclusive us/step over traced blocks (base: {:.1} us/step wall):",
        ratio(t0.wall_s, steps) * 1e6
    ));
    let names =
        ["ps_lookup self (plan, cache, assemble)", "ps_push self (partition, coalesce, apply)"];
    let rows = names
        .iter()
        .map(|n| n.to_string())
        .chain(child.iter().map(|c| format!("collective {} (incl. peer wait)", c.0)))
        .zip(excl0)
        .chain([
            ("input generation".to_string(), t0.input_s),
            ("stop barrier".to_string(), t0.sync_s),
        ]);
    for (name, secs) in rows {
        out.lines.push(format!("  {name:<44} {:>10.2}", ratio(secs, steps) * 1e6));
    }
    out.lines.push(format!("  coverage {coverage:.4} of {:.3} s traced wall", t0.wall_s));
    let last: Vec<(String, &SpanSet)> = runs
        .iter()
        .enumerate()
        .filter_map(|(r, run)| run.spans.last().map(|s| (format!("rank{r}"), s)))
        .collect();
    write_chrome_trace(args, &last, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeShape {
        ServeShape {
            vocab: 256,
            dim: 2,
            cache_rows: 16,
            batch: 8,
            warmup_steps: 2,
            block_steps: 2,
            min_steps: 4,
            ..full(Mix::Write)
        }
    }

    #[test]
    fn oracle_check_passes_clean_shards_and_fails_a_corrupted_one() {
        let shape = tiny();
        let mut runs = pass(&shape, 5, Duration::from_millis(20), true);
        assert!(runs.iter().all(|r| r.errors.is_empty()));
        assert!(runs[0].traced.steps > 0 && runs[0].plain.steps > 0);
        assert_eq!(oracle_check(&shape, 5, &runs), Ok(()));
        let v = runs[1].shard.row_mut(3);
        v[1] = f32::from_bits(v[1].to_bits() ^ 1);
        assert!(oracle_check(&shape, 5, &runs).is_err(), "one flipped bit must fail");
    }
}
