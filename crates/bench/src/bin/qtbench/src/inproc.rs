//! The three in-process workloads. One closed-loop caller trains one
//! engine through the accel crate's public API; each training call is one
//! repetition ("op"), checked against the engine's cycle counters.

use std::sync::Arc;

use crate::metrics::{ascending, median, Metric};
use crate::probes;
use crate::trace::{self, Spans, REP};
use crate::workload::{RunOpts, RunResult, Tally, Workload, WORKERS};
use qtaccel_accel::{
    AccelConfig, AccelPipeline, IndependentPipelines, QLearningAccel, SarsaAccel, ShardedExecutor,
};
use qtaccel_bench::grids::paper_grid;
use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
use qtaccel_envs::GridWorld;
use qtaccel_fixed::{QuantPolicy, Q8_8};
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_telemetry::SpanId;

/// SARSA exploration probability (the repository's throughput benches use
/// the same).
const EPSILON: f64 = 0.1;
/// Fresh constructions before the reps (the last one is the engine the
/// reps train).
const SETUPS_BEFORE: usize = 6;
/// More fresh constructions run between reps while their time stays under
/// this share of the reps' time, so `setup_s` samples the same stretches
/// of host speed the reps do.
const SETUP_SHARE: f64 = 0.15;
/// Samples per bank of the once-per-run equivalence check, in images.
const CHECK_IMAGES: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    QLearning,
    /// SARSA with the 8-bit stored format (`QuantPolicy::q8`).
    SarsaQ8,
}

/// One accelerator bank: table shape and algorithm.
#[derive(Debug, Clone, Copy)]
pub struct Bank {
    pub states: usize,
    pub actions: usize,
    pub algo: Algo,
}

impl Bank {
    pub fn config(&self, seed: u64) -> AccelConfig {
        let cfg = AccelConfig::default().with_seed(seed);
        match self.algo {
            Algo::QLearning => cfg,
            Algo::SarsaQ8 => AccelConfig {
                trainer: TrainerConfig::sarsa(EPSILON).with_seed(seed),
                ..cfg
            },
        }
    }

    /// A bare pipeline configured exactly like the workload's engine (the
    /// layer probes drive this directly).
    pub fn pipeline(&self, env: &GridWorld, seed: u64) -> AccelPipeline<Q8_8> {
        let mut p = AccelPipeline::new(env, self.config(seed), 0);
        if self.algo == Algo::SarsaQ8 {
            p.enable_quant(QuantPolicy::q8());
        }
        p
    }

    /// `|S|·|A|`: the shortest first call that builds the fast-path image.
    pub fn image(&self) -> u64 {
        (self.states * self.actions) as u64
    }

    pub fn env(&self) -> GridWorld {
        paper_grid(self.states, self.actions)
    }
}

/// A workload's size: bank shape, bank count and samples per repetition.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub bank: Bank,
    pub banks: usize,
    pub samples: u64,
}

pub fn shape(w: Workload, smoke: bool) -> Shape {
    let (states, algo, banks, samples) = match (w, smoke) {
        (Workload::BatchL2, false) => (4096, Algo::QLearning, 4, 1 << 22),
        (Workload::BatchL2, true) => (64, Algo::QLearning, 4, 1 << 15),
        (Workload::SpillSarsaQ8, false) => (262_144, Algo::SarsaQ8, 1, 1 << 21),
        (Workload::SpillSarsaQ8, true) => (1024, Algo::SarsaQ8, 1, 1 << 14),
        (Workload::CycleAccurate, false) => (16_384, Algo::QLearning, 1, 1 << 20),
        (Workload::CycleAccurate, true) => (256, Algo::QLearning, 1, 1 << 12),
        (Workload::Cluster2w, _) => unreachable!("the cluster is not an in-process workload"),
    };
    Shape {
        bank: Bank {
            states,
            actions: 8,
            algo,
        },
        banks,
        samples,
    }
}

/// The call a repetition times, behind one interface per workload.
trait Engine {
    fn train(&mut self, n: u64);
    fn stats(&self) -> CycleStats;
    /// Cycle-counter growth a call of `n` samples must show.
    fn cycles_for(&self, n: u64) -> u64;
}

struct Batch {
    envs: Vec<GridWorld>,
    pipes: IndependentPipelines<Q8_8>,
}

impl Engine for Batch {
    fn train(&mut self, n: u64) {
        self.pipes.train_batch(&self.envs, n);
    }
    fn stats(&self) -> CycleStats {
        self.pipes.stats()
    }
    fn cycles_for(&self, n: u64) -> u64 {
        // Merged stats keep the slowest bank's cycles.
        n.div_ceil(self.envs.len() as u64)
    }
}

struct Spill {
    env: GridWorld,
    accel: SarsaAccel<Q8_8>,
}

impl Engine for Spill {
    fn train(&mut self, n: u64) {
        self.accel.train_samples_fast(&self.env, n);
    }
    fn stats(&self) -> CycleStats {
        self.accel.stats()
    }
    fn cycles_for(&self, n: u64) -> u64 {
        n
    }
}

struct Cycle {
    env: GridWorld,
    accel: QLearningAccel<Q8_8>,
}

impl Engine for Cycle {
    fn train(&mut self, n: u64) {
        self.accel.train_samples(&self.env, n);
    }
    fn stats(&self) -> CycleStats {
        self.accel.stats()
    }
    fn cycles_for(&self, n: u64) -> u64 {
        n
    }
}

fn batch_pipes(
    shape: &Shape,
    envs: &[GridWorld],
    seed: u64,
    exec: &Arc<ShardedExecutor>,
) -> IndependentPipelines<Q8_8> {
    IndependentPipelines::new(envs, shape.bank.config(seed)).with_executor(Arc::clone(exec))
}

fn sarsa_q8(env: &GridWorld, bank: &Bank, seed: u64) -> SarsaAccel<Q8_8> {
    let mut a = SarsaAccel::new(env, bank.config(seed), EPSILON);
    a.enable_quant(QuantPolicy::q8());
    a
}

/// Seconds spent in each phase of one fresh construction.
#[derive(Debug, Clone, Copy)]
struct Setup {
    env: f64,
    new: f64,
    first_call: f64,
}

/// One fresh construction: the environment(s), the engine, and a first
/// call of one image's worth of samples per bank, which leaves the
/// fast-path image built.
fn construct(
    w: Workload,
    shape: &Shape,
    seed: u64,
    exec: &Arc<ShardedExecutor>,
    spans: &Spans,
    ordinal: u64,
) -> (Box<dyn Engine>, Setup) {
    let root = spans.begin("setup", None, 0, ordinal);
    let parent = root.as_ref().map(|s| s.context().span);
    let bank = shape.bank;
    let (envs, env_s) = spans.time("envs.build", parent, ordinal, || {
        (0..shape.banks).map(|_| bank.env()).collect::<Vec<_>>()
    });
    let (mut engine, new_s): (Box<dyn Engine>, f64) =
        spans.time("pipeline.new", parent, ordinal, || {
            let mut envs = envs;
            match w {
                Workload::BatchL2 => {
                    let pipes = batch_pipes(shape, &envs, seed, exec);
                    Box::new(Batch { envs, pipes }) as Box<dyn Engine>
                }
                Workload::SpillSarsaQ8 => {
                    let env = envs.remove(0);
                    let accel = sarsa_q8(&env, &bank, seed);
                    Box::new(Spill { env, accel })
                }
                Workload::CycleAccurate => {
                    let env = envs.remove(0);
                    let accel = QLearningAccel::new(&env, bank.config(seed));
                    Box::new(Cycle { env, accel })
                }
                Workload::Cluster2w => unreachable!("the cluster is not an in-process workload"),
            }
        });
    let first = bank.image() * shape.banks as u64;
    let ((), first_s) = spans.time("pipeline.first_call", parent, ordinal, || {
        engine.train(first)
    });
    spans.end(root);
    (
        engine,
        Setup {
            env: env_s,
            new: new_s,
            first_call: first_s,
        },
    )
}

/// A call of `n` samples must retire exactly `n` samples, grow the cycle
/// counter by exactly the call's cycles, and stall never.
fn check_rep(engine: &dyn Engine, before: CycleStats, n: u64, i: usize) -> Result<(), String> {
    let after = engine.stats();
    let (ds, dc, dst) = (
        after.samples - before.samples,
        after.cycles - before.cycles,
        after.stalls - before.stalls,
    );
    if (ds, dc, dst) == (n, engine.cycles_for(n), 0) {
        Ok(())
    } else {
        Err(format!(
            "rep {i}: stats moved by {ds} samples / {dc} cycles / {dst} stalls, expected {n} / {} / 0",
            engine.cycles_for(n)
        ))
    }
}

/// Repetition wall times, split by whether the rep was traced.
#[derive(Debug, Default)]
pub struct Reps {
    pub untraced: Vec<f64>,
    pub traced: Vec<f64>,
}

/// Time repetitions of `n` samples until the plan is met, calling
/// `between(rep_seconds_so_far)` after each. In a traced run every
/// other rep records spans, so `trace.overhead_share` compares interleaved
/// halves.
fn repeat(
    engine: &mut dyn Engine,
    n: u64,
    opts: &RunOpts,
    w: Workload,
    spans: &Spans,
    tally: &mut Tally,
    between: &mut dyn FnMut(f64),
) -> Reps {
    let plan = opts.plan(w, 1);
    let mut reps = Reps::default();
    let start_failed = tally.failed;
    let off = Spans::new(false, 0);
    let (mut i, mut spent) = (0usize, 0.0);
    while !plan.done(i, (tally.failed - start_failed) as usize) {
        let traced = opts.trace && i % 2 == 1;
        let sp = if traced { spans } else { &off };
        let root = sp.begin(REP, None, 0, i as u64);
        let parent: Option<SpanId> = root.as_ref().map(|s| s.context().span);
        let before = engine.stats();
        let ((), secs) = sp.time("train", parent, i as u64, || engine.train(n));
        let (outcome, _) = sp.time("check", parent, i as u64, || {
            check_rep(engine, before, n, i)
        });
        sp.end(root);
        if outcome.is_ok() {
            if traced {
                reps.traced.push(secs);
            } else {
                reps.untraced.push(secs);
            }
        }
        tally.record(outcome);
        spent += secs;
        between(spent);
        i += 1;
    }
    reps
}

/// The run's once-per-run bit-exactness check: a fresh instance of the
/// workload's path trained for four images' worth of samples per bank
/// must equal the cycle-accurate engine (`cycle_accurate` itself must
/// equal the software `RefTrainer`). Returns the cycle-accurate engine's
/// host nanoseconds per sample.
fn equivalence(
    w: Workload,
    shape: &Shape,
    seed: u64,
    exec: &Arc<ShardedExecutor>,
    spans: &Spans,
) -> Result<f64, String> {
    let bank = shape.bank;
    let per_bank = CHECK_IMAGES * bank.image();
    let root = spans.begin("equivalence", None, 0, 0);
    let parent = root.as_ref().map(|s| s.context().span);
    let out = match w {
        Workload::BatchL2 => {
            let envs: Vec<GridWorld> = (0..shape.banks).map(|_| bank.env()).collect();
            let mut fast = batch_pipes(shape, &envs, seed, exec);
            fast.train_batch(&envs, per_bank * shape.banks as u64);
            let mut slow = IndependentPipelines::<Q8_8>::new(&envs, bank.config(seed));
            let (stats, secs) = spans.time("cycle_engine", parent, 0, || {
                slow.train_samples_sequential(&envs, per_bank)
            });
            let same = stats == fast.stats()
                && (0..shape.banks).all(|i| {
                    fast.q_table(i) == slow.q_table(i) && fast.qmax_table(i) == slow.qmax_table(i)
                });
            same.then_some(secs)
                .ok_or("train_batch diverged from the cycle-accurate banks")
        }
        Workload::SpillSarsaQ8 => {
            let env = bank.env();
            let mut fast = sarsa_q8(&env, &bank, seed);
            fast.train_samples_fast(&env, per_bank);
            let mut slow = sarsa_q8(&env, &bank, seed);
            let (stats, secs) = spans.time("cycle_engine", parent, 0, || {
                slow.train_samples(&env, per_bank)
            });
            let same = stats == fast.stats()
                && fast.q_table() == slow.q_table()
                && fast.qmax_table() == slow.qmax_table();
            same.then_some(secs)
                .ok_or("packed fast path diverged from the cycle-accurate engine")
        }
        Workload::CycleAccurate => {
            let env = bank.env();
            let mut hw = QLearningAccel::<Q8_8>::new(&env, bank.config(seed));
            let (stats, secs) = spans.time("cycle_engine", parent, 0, || {
                hw.train_samples(&env, per_bank)
            });
            let mut sw =
                RefTrainer::<Q8_8, _>::new(env, TrainerConfig::q_learning().with_seed(seed));
            sw.run_samples(per_bank);
            let same = stats.samples == per_bank
                && stats.cycles == per_bank + stats.fill_bubbles
                && hw.q_table().as_slice() == sw.q().as_slice();
            same.then_some(secs)
                .ok_or("cycle-accurate engine diverged from RefTrainer")
        }
        Workload::Cluster2w => unreachable!("the cluster is not an in-process workload"),
    };
    spans.end(root);
    out.map(|secs| secs * 1e9 / (per_bank * shape.banks as u64) as f64)
        .map_err(str::to_owned)
}

/// The bounded end-to-end metrics of one run, shared by every workload:
/// throughput at the fastest rep, the fastest set-up and peak memory (see
/// [`crate::metrics::E2E`]).
pub fn e2e_metrics(samples: u64, rep_secs: &[f64], setup_secs: &[f64], rss_mb: f64) -> Vec<Metric> {
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let rep = fastest(rep_secs);
    let setup = fastest(setup_secs);
    vec![
        Metric::new(
            "samples_per_s",
            if rep.is_finite() {
                samples as f64 / rep
            } else {
                0.0
            },
        ),
        Metric::new("setup_s", if setup.is_finite() { setup } else { 0.0 }),
        Metric::new("peak_rss_mb", rss_mb),
    ]
}

/// Seconds to milliseconds, for the op latencies a run returns.
pub fn to_ms(secs: &[f64]) -> Vec<f64> {
    secs.iter().map(|s| s * 1e3).collect()
}

/// The executor layer for workloads that do not drive it: a few
/// `batch_l2` calls on a fresh instrumented pool.
pub fn executor_probe(opts: &RunOpts, spans: &Spans, tally: &mut Tally) -> Vec<Metric> {
    let shape = shape(Workload::BatchL2, opts.smoke);
    let exec = Arc::new(ShardedExecutor::new_instrumented(WORKERS));
    let root = spans.begin("probe.executor", None, 0, 0);
    let parent = root.as_ref().map(|s| s.context().span);
    let (mut engine, _) = construct(
        Workload::BatchL2,
        &shape,
        opts.seed,
        &exec,
        &Spans::new(false, 0),
        0,
    );
    let metrics = exec.metrics().expect("instrumented pool");
    let before = probes::ExecSnap::of(metrics);
    for i in 0..if opts.smoke { 2 } else { 8 } {
        let start = engine.stats();
        spans.time("train", parent, i as u64, || engine.train(shape.samples));
        tally.record(check_rep(engine.as_ref(), start, shape.samples, i));
    }
    spans.end(root);
    probes::executor_metrics(metrics, &before)
}

pub fn run(w: Workload, opts: &RunOpts) -> RunResult {
    let shape = shape(w, opts.smoke);
    let spans = Spans::new(opts.trace, opts.seed);
    let mut tally = Tally::default();
    // The caller owns the pool; a traced run reads its introspection.
    let exec = Arc::new(if opts.trace {
        ShardedExecutor::new_instrumented(WORKERS)
    } else {
        ShardedExecutor::new(WORKERS)
    });

    let mut phases = Vec::new();
    let mut engine = None;
    for k in 0..if opts.smoke { 2 } else { SETUPS_BEFORE } {
        // Drop the previous instance first so constructions never overlap.
        drop(engine.take());
        let (e, s) = construct(w, &shape, opts.seed, &exec, &spans, k as u64);
        engine = Some(e);
        phases.push(s);
    }
    let mut engine = engine.expect("at least one construction");
    let exec_before = exec.metrics().map(probes::ExecSnap::of);
    let mut interleaved = 0.0;
    let reps = repeat(
        engine.as_mut(),
        shape.samples,
        opts,
        w,
        &spans,
        &mut tally,
        &mut |rep_secs| {
            if interleaved < SETUP_SHARE * rep_secs {
                let (_, s) = construct(w, &shape, opts.seed, &exec, &spans, phases.len() as u64);
                interleaved += s.env + s.new + s.first_call;
                phases.push(s);
            }
        },
    );
    let rss = crate::host::peak_rss_mb().unwrap_or(0.0);
    drop(engine);

    let check = equivalence(w, &shape, opts.seed, &exec, &spans);
    tally.record(check.as_ref().map(|_| ()).map_err(Clone::clone));

    let phase = |f: fn(&Setup) -> f64| phases.iter().map(f).collect::<Vec<_>>();
    if !opts.trace {
        let metrics = e2e_metrics(
            shape.samples,
            &reps.untraced,
            &phase(|s| s.env + s.new + s.first_call),
            rss,
        );
        return RunResult {
            tally,
            metrics,
            ops_ms: to_ms(&reps.untraced),
        };
    }

    let ms = |v: Vec<f64>| median(&ascending(&v)) * 1e3;
    let mut metrics = vec![
        Metric::new("envs.build_ms", ms(phase(|s| s.env))),
        Metric::new("pipeline.new_ms", ms(phase(|s| s.new))),
        Metric::new("pipeline.cycle_ns_per_sample", check.unwrap_or(0.0)),
    ];
    let env = shape.bank.env();
    metrics.extend(probes::pipeline(
        &shape.bank,
        &env,
        opts.seed,
        opts.smoke,
        &spans,
    ));
    match (w, exec.metrics().zip(exec_before)) {
        (Workload::BatchL2, Some((m, before))) => {
            metrics.extend(probes::executor_metrics(m, &before))
        }
        _ => metrics.extend(executor_probe(opts, &spans, &mut tally)),
    }
    metrics.extend(probes::checkpoint(
        &shape.bank,
        &env,
        opts,
        &spans,
        &mut tally,
    ));
    metrics.extend(probes::wire(opts.smoke, &spans, &mut tally));
    metrics.extend(crate::cluster::probe(opts, &spans, &mut tally));
    metrics.push(Metric::new(
        "trace.overhead_share",
        trace::overhead_share(&reps.untraced, &reps.traced),
    ));
    metrics.push(Metric::new(
        "budget.residual_share",
        trace::residual_share(&spans.spans()),
    ));
    tally.record(trace::write(
        &opts.out,
        w.name(),
        opts.seed,
        &spans,
        &metrics,
    ));
    RunResult {
        tally,
        metrics,
        ops_ms: to_ms(&reps.untraced),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_shapes_keep_the_documented_footprints() {
        let b = shape(Workload::BatchL2, false);
        // Four fused 8-byte-cell images of 4096 x 8 = 256 KB each: L2-resident.
        assert_eq!((b.banks, b.bank.image() * 8), (4, 256 * 1024));
        let s = shape(Workload::SpillSarsaQ8, false);
        assert_eq!(
            s.bank.image(),
            1 << 21,
            "2 Mi cells: the packed image spills L2"
        );
        for w in [
            Workload::BatchL2,
            Workload::SpillSarsaQ8,
            Workload::CycleAccurate,
        ] {
            for smoke in [false, true] {
                let sh = shape(w, smoke);
                assert_eq!(sh.samples % sh.banks as u64, 0, "{w:?}: equal bank budgets");
            }
        }
    }
}
