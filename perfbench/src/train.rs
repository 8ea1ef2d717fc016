//! `train` and `train-scheduled`: the live EmbRace hybrid training step,
//! driven through `embrace_trainer`'s public entry points.
//!
//! A run times whole `steps`-step training calls. Set-up (table init and
//! rank spawn) is timed separately by zero-step calls and subtracted, so
//! `tokens_per_s` is the steady-state rate. The traced run alternates
//! untraced calls with observed ones and reads the per-layer times from
//! the program's own `train` step spans, their `collective` children, and
//! the comm scheduler's `OpTiming` log.

use crate::metrics::{within_5pct, Outcome};
use crate::stats::{median, percentile, ratio};
use crate::{write_chrome_trace, Args};
use embrace_obs::SpanSet;
use embrace_trainer::scheduled::RankObservation;
use embrace_trainer::{
    train_convergence, train_convergence_observed, train_convergence_scheduled,
    train_convergence_scheduled_observed, ConvergenceConfig, ConvergenceResult, TrainMethod,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Which EmbRace pipeline a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pipeline {
    /// Collectives issued inline by the rank threads.
    Inline,
    /// Collectives routed through the chunked, prioritised comm thread.
    Scheduled,
}

/// Problem size of a training workload.
#[derive(Clone, Copy, Debug)]
pub struct TrainShape {
    pub world: usize,
    pub vocab: usize,
    pub dim: usize,
    /// Tokens per rank per step.
    pub tokens_per_batch: usize,
    pub zipf_s: f64,
    /// Steps per timed training call.
    pub steps: usize,
    /// Zero-step calls whose median is `setup_s`.
    pub setup_reps: usize,
    /// Timed calls per mode, however short the time budget: enough
    /// traced steps for a p95 step time.
    pub min_calls: usize,
}

pub const FULL: TrainShape = TrainShape {
    world: 2,
    vocab: 1 << 16,
    dim: 64,
    tokens_per_batch: 1024,
    zipf_s: 1.05,
    steps: 64,
    setup_reps: 7,
    min_calls: 4,
};

/// The five collectives of the inline hybrid step, with their metrics.
const STEP_COLLECTIVE_METRICS: [(&str, &str, &str); 5] = [
    (
        "allgather_tokens",
        "collectives.allgather_tokens.ms_per_step",
        "collectives.allgather_tokens.calls_per_step",
    ),
    (
        "alltoall_dense",
        "collectives.alltoall_dense.ms_per_step",
        "collectives.alltoall_dense.calls_per_step",
    ),
    (
        "alltoallv_sparse",
        "collectives.alltoallv_sparse.ms_per_step",
        "collectives.alltoallv_sparse.calls_per_step",
    ),
    (
        "ring_allreduce",
        "collectives.ring_allreduce.ms_per_step",
        "collectives.ring_allreduce.calls_per_step",
    ),
    (
        "allgather_dense",
        "collectives.allgather_dense.ms_per_step",
        "collectives.allgather_dense.calls_per_step",
    ),
];

/// Relative loss-curve tolerance of EmbRace against the AllGather
/// baseline (the paper's Fig. 11 equivalence, as `trainer::real` tests it).
const FIG11_REL_TOL: f64 = 1e-3;

impl TrainShape {
    fn config(&self, seed: u64, world: usize, steps: usize) -> ConvergenceConfig {
        ConvergenceConfig {
            world,
            vocab: self.vocab,
            dim: self.dim,
            tokens_per_batch: self.tokens_per_batch,
            steps,
            zipf_s: self.zipf_s,
            seed,
            ..ConvergenceConfig::default()
        }
    }

    fn tokens_per_call(&self, world: usize) -> f64 {
        (world * self.tokens_per_batch * self.steps) as f64
    }
}

/// Timed training calls: wall seconds and output of each completed call.
struct Pass<T> {
    walls: Vec<f64>,
    outputs: Vec<T>,
    failed_calls: u64,
}

impl<T> Pass<T> {
    fn new() -> Self {
        Pass { walls: Vec::new(), outputs: Vec::new(), failed_calls: 0 }
    }

    /// Time one call; a call that panics counts as failed.
    fn call(&mut self, f: impl FnOnce() -> T) {
        let t = Instant::now();
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(out) => {
                self.walls.push(t.elapsed().as_secs_f64());
                self.outputs.push(out);
            }
            Err(_) => self.failed_calls += 1,
        }
    }

    /// `min_calls` timed calls of `f`, stopping at the first failure.
    fn repeat(min_calls: usize, mut f: impl FnMut() -> T) -> Self {
        let mut pass = Pass::new();
        while pass.calls() < min_calls && pass.failed_calls == 0 {
            pass.call(&mut f);
        }
        pass
    }

    fn calls(&self) -> usize {
        self.walls.len() + self.failed_calls as usize
    }

    /// Steady-state seconds per step of each call, set-up removed.
    fn step_seconds(&self, setup_s: f64, steps: usize) -> Vec<f64> {
        self.walls.iter().map(|w| (w - setup_s) / steps as f64).collect()
    }

    /// Tokens per steady-state second over all completed calls.
    fn tokens_per_s(&self, setup_s: f64, tokens_per_call: f64) -> f64 {
        let steady: f64 = self.walls.iter().map(|w| w - setup_s).sum();
        ratio(tokens_per_call * self.walls.len() as f64, steady)
    }
}

/// What a traced call recorded on each rank.
enum Recorded {
    /// Recorder spans of each rank thread.
    Inline(Vec<SpanSet>),
    /// Each rank's comm-thread spans and `OpTiming` log.
    Scheduled(Vec<RankObservation>),
}

fn observed(pipeline: Pipeline, cfg: &ConvergenceConfig) -> (Vec<f64>, Recorded) {
    match pipeline {
        Pipeline::Inline => {
            let (r, sets) = train_convergence_observed(TrainMethod::EmbRace, cfg);
            (r.losses, Recorded::Inline(sets))
        }
        Pipeline::Scheduled => {
            let (r, _, obs) = train_convergence_scheduled_observed(cfg, true);
            (r.losses, Recorded::Scheduled(obs))
        }
    }
}

/// Median wall time of `reps` zero-step calls.
fn setup_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let walls: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&walls)
}

fn entry(pipeline: Pipeline) -> fn(&ConvergenceConfig) -> ConvergenceResult {
    match pipeline {
        Pipeline::Inline => |cfg| train_convergence(TrainMethod::EmbRace, cfg),
        Pipeline::Scheduled => train_convergence_scheduled,
    }
}

/// Every completed call of one seed must produce the same losses, bit
/// for bit, and as many as it ran steps.
fn check_deterministic(losses: &[&[f64]], steps: usize) -> Result<(), String> {
    let first = losses.first().ok_or("no completed training call")?;
    if losses.len() < 2 {
        return Err("need two calls of one seed to compare".into());
    }
    if first.len() != steps || first.iter().any(|l| !l.is_finite()) {
        return Err(format!("expected {steps} finite losses, got {first:?}"));
    }
    match losses.iter().position(|l| l != first) {
        Some(i) => Err(format!("call {i} diverged from call 0 under the same seed")),
        None => Ok(()),
    }
}

/// EmbRace must track the AllGather baseline within [`FIG11_REL_TOL`].
fn check_fig11(embrace: &[f64], allgather: &[f64]) -> Result<(), String> {
    let base = ConvergenceResult { losses: allgather.to_vec() };
    let ours = ConvergenceResult { losses: embrace.to_vec() };
    let scale = allgather.first().map_or(1.0, |l| l.abs().max(1.0));
    let rel = base.max_curve_diff(&ours) / scale;
    if embrace.len() == allgather.len() && rel < FIG11_REL_TOL {
        Ok(())
    } else {
        Err(format!("relative curve difference {rel:e} (limit {FIG11_REL_TOL:e})"))
    }
}

/// The scheduled pipeline gathers each rank's loss as an integer number
/// of thousandths, so its curve equals the inline one to that rounding:
/// the tolerance of `trainer::scheduled`'s own equality test.
fn check_scheduled_matches_inline(
    scheduled: &[f64],
    inline: &[f64],
    world: usize,
) -> Result<(), String> {
    if scheduled.len() != inline.len() {
        return Err(format!("{} scheduled vs {} inline losses", scheduled.len(), inline.len()));
    }
    for (step, (s, i)) in scheduled.iter().zip(inline).enumerate() {
        if (s - i).abs() > 0.004 * world as f64 + i.abs() * 1e-4 {
            return Err(format!("step {step}: scheduled {s} vs inline {i}"));
        }
    }
    Ok(())
}

pub fn run(pipeline: Pipeline, shape: &TrainShape, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = shape.config(args.seed, shape.world, shape.steps);
    let zero = shape.config(args.seed, shape.world, 0);
    let call = entry(pipeline);
    let setup_s = setup_seconds(shape.setup_reps, || drop(call(&zero)));
    out.lines.push(format!(
        "{pipeline:?} EmbRace step: world {} vocab {} dim {} tokens/rank/step {} zipf {} \
         steps/call {} seed {}",
        shape.world,
        shape.vocab,
        shape.dim,
        shape.tokens_per_batch,
        shape.zipf_s,
        shape.steps,
        args.seed
    ));
    // Untraced calls; in the traced run, traced calls alternate with
    // them so both modes see the same host conditions.
    let mut plain = Pass::new();
    let mut traced = Pass::new();
    let start = Instant::now();
    while plain.calls() < shape.min_calls || start.elapsed() < args.budget {
        plain.call(|| call(&cfg).losses);
        if args.trace {
            traced.call(|| observed(pipeline, &cfg));
        }
        if plain.failed_calls + traced.failed_calls > 0 {
            break;
        }
    }
    for calls in [plain.calls(), traced.calls()] {
        out.attempted += (calls * shape.steps) as u64;
    }
    out.failed += (plain.failed_calls + traced.failed_calls) * shape.steps as u64;
    let step_s = plain.step_seconds(setup_s, shape.steps);
    if step_s.is_empty() {
        return out;
    }
    let tokens_per_s = plain.tokens_per_s(setup_s, shape.tokens_per_call(shape.world));
    out.set("tokens_per_s", tokens_per_s);
    out.set("op_p50_us", median(&step_s) * 1e6);
    out.set("setup_s", setup_s);
    out.lines.push(format!(
        "untraced: {} calls, {:.0} tokens/s, {:.3} ms/step, setup {:.4} s",
        plain.walls.len(),
        tokens_per_s,
        median(&step_s) * 1e3,
        setup_s
    ));

    let losses: Vec<&[f64]> = plain
        .outputs
        .iter()
        .chain(traced.outputs.iter().map(|(l, _)| l))
        .map(Vec::as_slice)
        .collect();
    out.check(
        "same seed gives bitwise-equal losses, traced or not",
        check_deterministic(&losses, shape.steps),
    );
    let Some(ours) = losses.first() else { return out };
    out.set("trainer.final_loss", ours.last().copied().unwrap_or(0.0));
    match pipeline {
        Pipeline::Inline => {
            let ag = || train_convergence(TrainMethod::HorovodAllGather, &cfg).losses;
            let ag_pass = Pass::repeat(if args.trace { shape.min_calls } else { 1 }, ag);
            out.check(
                "EmbRace loss curve tracks HorovodAllGather (Fig. 11)",
                check_fig11(ours, ag_pass.outputs.first().map_or(&[], Vec::as_slice)),
            );
            if args.trace {
                // Reference numbers, not gated: the AllGather baseline and
                // a world-1 run at the same per-rank shape.
                let ag_setup = setup_seconds(shape.setup_reps, || {
                    drop(train_convergence(TrainMethod::HorovodAllGather, &zero))
                });
                let ag_tps = ag_pass.tokens_per_s(ag_setup, shape.tokens_per_call(shape.world));
                let one = shape.config(args.seed, 1, shape.steps);
                let one_zero = shape.config(args.seed, 1, 0);
                let w1_setup = setup_seconds(shape.setup_reps, || drop(call(&one_zero)));
                let w1 = Pass::repeat(shape.min_calls, || call(&one).losses);
                let w1_tps = w1.tokens_per_s(w1_setup, shape.tokens_per_call(1));
                out.set("ref.allgather_tokens_per_s", ag_tps);
                out.set("ref.embrace_over_allgather", ratio(tokens_per_s, ag_tps));
                out.set("ref.world1_tokens_per_s", w1_tps);
                let efficiency = ratio(tokens_per_s, shape.world as f64 * w1_tps);
                out.set("ref.scaling_efficiency", efficiency);
                out.lines.push(format!(
                    "reference: AllGather {ag_tps:.0} tokens/s, EmbRace/AllGather {:.3} \
                     (base: AllGather at world {}); world-1 EmbRace {w1_tps:.0} tokens/s, \
                     scaling efficiency {efficiency:.3} (base: {} x world-1); worlds 4 and 8 \
                     are not timed on a host with fewer cores than ranks",
                    ratio(tokens_per_s, ag_tps),
                    shape.world,
                    shape.world
                ));
            }
        }
        Pipeline::Scheduled => {
            let inline_losses = train_convergence(TrainMethod::EmbRace, &cfg).losses;
            out.check(
                "scheduled losses equal the inline pipeline's",
                check_scheduled_matches_inline(ours, &inline_losses, shape.world),
            );
        }
    }

    if args.trace {
        let traced_tps = traced.tokens_per_s(setup_s, shape.tokens_per_call(shape.world));
        out.set("trace.overhead", ratio(tokens_per_s, traced_tps));
        let mut sets = Vec::new();
        let mut logs = Vec::new();
        for (_, rec) in &traced.outputs {
            match rec {
                Recorded::Inline(ranks) => sets.push(ranks.as_slice()),
                Recorded::Scheduled(ranks) => logs.push(ranks.as_slice()),
            }
        }
        match pipeline {
            Pipeline::Inline => inline_layers(&traced.walls, &sets, setup_s, args, &mut out),
            Pipeline::Scheduled => scheduler_layers(&logs, shape.steps, args, &mut out),
        }
    }
    out
}

/// Rank-0 view of one traced inline call.
#[derive(Default)]
struct StepLayers {
    step_s: Vec<f64>,
    self_s: Vec<f64>,
    /// Collective name → (seconds, calls), direct children of steps only.
    per_op: BTreeMap<String, (f64, u64)>,
    peer_wait_s: f64,
}

/// Split rank 0's step spans into self time and collective children,
/// and estimate how long rank 0 waited for its peer inside collectives.
fn step_layers(ranks: &[SpanSet], into: &mut StepLayers) {
    let rank0 = &ranks[0];
    let mut current: Option<(f64, f64)> = None;
    let close = |cur: Option<(f64, f64)>, into: &mut StepLayers| {
        if let Some((dur, children)) = cur {
            into.step_s.push(dur);
            into.self_s.push(dur - children);
        }
    };
    for s in rank0.spans() {
        match (s.depth, s.cat.as_str()) {
            (0, "train") => {
                close(current.take(), into);
                current = Some((s.dur(), 0.0));
            }
            (1, _) => {
                if let Some((_, children)) = current.as_mut() {
                    *children += s.dur();
                }
                let e = into.per_op.entry(s.name.clone()).or_default();
                e.0 += s.dur();
                e.1 += 1;
            }
            _ => {}
        }
    }
    close(current, into);
    into.peer_wait_s += peer_wait(ranks);
}

/// Seconds rank 0 spent inside collectives before its peer arrived.
/// Each rank's clock starts at its own recorder install, so the clocks
/// are first aligned on collective end times, which coincide on both
/// ranks (every collective finishes when the last rank's data lands).
fn peer_wait(ranks: &[SpanSet]) -> f64 {
    let colls = |set: &SpanSet| -> Vec<(f64, f64)> {
        set.spans().iter().filter(|s| s.cat == "collective").map(|s| (s.start, s.end)).collect()
    };
    let mine = colls(&ranks[0]);
    let mut wait = 0.0;
    for peer in &ranks[1..] {
        let theirs = colls(peer);
        if theirs.len() != mine.len() || mine.is_empty() {
            continue;
        }
        let offsets: Vec<f64> = mine.iter().zip(&theirs).map(|(a, b)| b.1 - a.1).collect();
        let offset = median(&offsets);
        let waits = mine.iter().zip(&theirs).map(|(a, b)| (b.0 - offset - a.0).max(0.0));
        wait = f64::max(wait, waits.sum());
    }
    wait
}

/// Per-layer breakdown of the traced inline calls (`walls[i]` is the
/// wall time of the call that recorded `calls[i]`).
fn inline_layers(
    walls: &[f64],
    calls: &[&[SpanSet]],
    setup_s: f64,
    args: &Args,
    out: &mut Outcome,
) {
    let mut layers = StepLayers::default();
    for ranks in calls {
        step_layers(ranks, &mut layers);
    }
    let steps = layers.step_s.len() as f64;
    let step_total: f64 = layers.step_s.iter().sum();
    let coll_total: f64 = layers.per_op.values().map(|(s, _)| s).sum();
    let ms = |q: f64| percentile(&layers.step_s, q).map(|s| s * 1e3);
    let self_ms = percentile(&layers.self_s, 0.5).map(|s| s * 1e3);
    match (ms(0.5), ms(0.95), self_ms) {
        (Ok(p50), Ok(p95), Ok(self_p50)) => {
            out.set("trainer.step_ms.p50", p50);
            out.set("trainer.step_ms.p95", p95);
            out.set("trainer.step_self_ms.p50", self_p50);
        }
        (a, b, c) => out.check("step percentiles", a.and(b).and(c).map(drop)),
    }
    out.set("trainer.step_ms.mean", ratio(step_total, steps) * 1e3);
    for (name, metric_ms, metric_calls) in STEP_COLLECTIVE_METRICS {
        let (secs, calls) = layers.per_op.get(name).copied().unwrap_or_default();
        out.set(metric_ms, ratio(secs, steps) * 1e3);
        out.set(metric_calls, ratio(calls as f64, steps));
    }
    out.set("collectives.peer_wait_ms_per_step", ratio(layers.peer_wait_s, steps) * 1e3);
    out.set("collectives.share", ratio(coll_total, step_total));

    // Exclusive layers of the traced calls: set-up, step self time and
    // each collective; their sum must account for the calls' wall time.
    let e2e: f64 = walls.iter().sum();
    let accounted = setup_s * walls.len() as f64 + step_total;
    let coverage = ratio(accounted, e2e);
    out.set("layers.coverage", coverage);
    out.check("exclusive layer times sum to the traced wall time within 5%", within_5pct(coverage));

    out.lines.push(format!(
        "traced: {} calls, {} rank-0 steps; exclusive ms/step (base: mean step {:.3} ms):",
        walls.len(),
        steps,
        ratio(step_total, steps) * 1e3
    ));
    out.lines.push(format!(
        "  {:<28} {:>9.4}",
        "step self (compute, split, Adam)",
        ratio(step_total - coll_total, steps) * 1e3
    ));
    for (name, (secs, calls)) in &layers.per_op {
        out.lines.push(format!(
            "  {:<28} {:>9.4}  ({:.1} calls/step)",
            format!("collective {name}"),
            ratio(*secs, steps) * 1e3,
            ratio(*calls as f64, steps)
        ));
    }
    out.lines.push(format!(
        "  of which rank-0 peer wait {:.4} ms/step; set-up {:.4} s per call; coverage {:.4} of \
         {:.3} s wall",
        ratio(layers.peer_wait_s, steps) * 1e3,
        setup_s,
        coverage,
        e2e
    ));
    if let Some(ranks) = calls.last() {
        let labelled: Vec<(String, &SpanSet)> =
            ranks.iter().enumerate().map(|(r, s)| (format!("rank{r}"), s)).collect();
        write_chrome_trace(args, &labelled, out);
    }
}

/// Comm-scheduler breakdown of the traced scheduled calls. The comm
/// thread's spans overlap the rank's compute, so this workload has no
/// exclusive per-layer partition (`layers.coverage` reads 0).
fn scheduler_layers(
    calls: &[&[RankObservation]],
    steps_per_call: usize,
    args: &Args,
    out: &mut Outcome,
) {
    let (mut queue, mut exec, mut bytes, mut chunks, mut steps) = (0.0, 0.0, 0u64, 0u64, 0usize);
    let mut step_s = Vec::new();
    for ranks in calls {
        let Some((_, timings)) = ranks.first() else { continue };
        steps += steps_per_call;
        for t in timings {
            queue += t.queue_wait();
            exec += t.exec_time();
            bytes += t.bytes;
            chunks += u64::from(t.chunks);
        }
        // A step starts when the rank submits its token gather.
        let mut starts: Vec<f64> = timings
            .iter()
            .filter(|t| t.tag.ends_with("/tokens_cur"))
            .map(|t| t.submitted_s)
            .collect();
        starts.sort_by(f64::total_cmp);
        step_s.extend(starts.windows(2).map(|w| w[1] - w[0]));
    }
    let n = steps as f64;
    out.set("scheduler.queue_wait_ms_per_step", ratio(queue, n) * 1e3);
    out.set("scheduler.exec_ms_per_step", ratio(exec, n) * 1e3);
    out.set("scheduler.bytes_per_step", ratio(bytes as f64, n));
    out.set("scheduler.chunks_per_step", ratio(chunks as f64, n));
    match (percentile(&step_s, 0.5), percentile(&step_s, 0.95)) {
        (Ok(p50), Ok(p95)) => {
            out.set("trainer.step_ms.p50", p50 * 1e3);
            out.set("trainer.step_ms.p95", p95 * 1e3);
        }
        (a, b) => out.check("step percentiles", a.and(b).map(drop)),
    }
    out.set("trainer.step_ms.mean", ratio(step_s.iter().sum(), step_s.len() as f64) * 1e3);
    out.lines.push(format!(
        "traced: {} calls; rank-0 comm thread per step: queue wait {:.4} ms, exec {:.4} ms, \
         {:.0} bytes, {:.1} chunks (spans overlap compute: no exclusive breakdown)",
        calls.len(),
        ratio(queue, n) * 1e3,
        ratio(exec, n) * 1e3,
        ratio(bytes as f64, n),
        ratio(chunks as f64, n)
    ));
    if let Some(ranks) = calls.last() {
        let labelled: Vec<(String, &SpanSet)> =
            ranks.iter().enumerate().map(|(r, (s, _))| (format!("comm{r}"), s)).collect();
        write_chrome_trace(args, &labelled, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_checks_catch_corrupted_losses() {
        let good = [3.0, 2.0, 1.0];
        assert!(check_deterministic(&[&good, &good], 3).is_ok());
        let flipped = [3.0, 2.0, f64::from_bits(1.0f64.to_bits() + 1)];
        assert!(check_deterministic(&[&good, &flipped], 3).is_err(), "one ulp must fail");
        assert!(check_deterministic(&[&good], 3).is_err(), "one call proves nothing");
        assert!(check_fig11(&good, &good).is_ok());
        assert!(check_fig11(&good, &[3.0, 2.0, 1.01]).is_err());
        assert!(check_scheduled_matches_inline(&good, &[3.0, 2.0, 1.001], 2).is_ok());
        assert!(check_scheduled_matches_inline(&good, &[3.0, 2.0, 1.5], 2).is_err());
        assert!(within_5pct(0.97).is_ok() && within_5pct(0.94).is_err());
    }
}
