//! Parallel-pipeline configurations (§VII-A, Figs. 8 and 9).
//!
//! * [`DualPipelineShared`] — two agents exploring the *same* environment
//!   and updating *shared* Q/R/Qmax tables through the two ports of
//!   dual-port BRAM. Same-cycle writes to the same address are
//!   arbitrated: port A (pipeline 0) "arbitrarily overwrites the other".
//!   Throughput doubles; convergence is unaffected as long as the agents
//!   rarely collide on the same state (the paper's argument, measured
//!   here by the collision counter).
//! * [`IndependentPipelines`] — N agents on N disjoint sub-environments,
//!   each with its own BRAM bank ("each accessing a separate memory
//!   block"). Linear throughput scaling bounded only by memory. One batch
//!   path trains them on the executor,
//!   [`train_batch`](IndependentPipelines::train_batch), durable or not;
//!   a durable shard can also run alone as one lease, and
//!   [`train_samples_sequential`](IndependentPipelines::train_samples_sequential)
//!   is the cycle-accurate reference both are pinned to.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::checkpoint::CheckpointError;
use crate::config::{AccelConfig, HazardMode};
use crate::executor::{chunk_samples, Shard, ShardedExecutor};
use crate::fault::FaultConfig;
use crate::pipeline::{AccelPipeline, InFlight, Pending, PolicyUnit, FILL, WRITE_OFFSET};
use crate::resources::{analyze, engine_kind, resource_report, AccelResources};
use qtaccel_core::qtable::{MaxMode, QTable, QmaxTable};
use qtaccel_core::trainer::{seed_unit, Transition};
use qtaccel_envs::{sa_index, Action, Environment, RewardTable, State};
use qtaccel_fixed::QValue;
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::{RngSource, SeedSequence};
use qtaccel_telemetry::{CounterBank, CounterId, NullSink, SpanContext, SpanTracer, TraceSink};

#[derive(Debug, Clone)]
struct AgentCtx {
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    update_rng: Lfsr32,
    carry: Option<(State, Option<Action>)>,
}

impl AgentCtx {
    fn new(seed: u64, pipeline: u64) -> Self {
        let seeds = SeedSequence::new(seed);
        Self {
            start_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline, seed_unit::START))),
            behavior_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline, seed_unit::BEHAVIOR))),
            update_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline, seed_unit::UPDATE))),
            carry: None,
        }
    }
}

/// Two state-sharing pipelines over dual-port shared tables (Fig. 8).
#[derive(Debug, Clone)]
pub struct DualPipelineShared<V> {
    num_states: usize,
    num_actions: usize,
    config: AccelConfig,
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    q_mem: Vec<V>,
    qmax_mem: Vec<(V, Action)>,
    rewards: RewardTable<V>,
    // Each pipeline's in-flight writes to the shared memories, port A
    // (pipeline 0) first.
    pending_q: [InFlight<V>; 2],
    pending_qmax: [InFlight<(V, Action)>; 2],
    agents: [AgentCtx; 2],
    cycle: u64,
    samples: u64,
    fwd_q: u64,
    fwd_qmax: u64,
    qmax_writes: u64,
    q_collisions: u64,
    qmax_collisions: u64,
}

impl<V: QValue> DualPipelineShared<V> {
    /// Build a dual-pipeline instance over `env`'s dimensions.
    ///
    /// # Panics
    /// If the hazard mode is not `Forwarding` or the max mode is not the
    /// Qmax array — the shared configuration is only specified for the
    /// paper's design point (§V-A), which never stalls.
    pub fn new<E: Environment>(env: &E, config: AccelConfig) -> Self {
        assert_eq!(
            config.hazard,
            HazardMode::Forwarding,
            "dual-pipeline mode models the forwarding design only"
        );
        assert_eq!(
            config.trainer.max_mode,
            MaxMode::QmaxArray,
            "dual-pipeline mode models the Qmax-array design only"
        );
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        let (s, a) = (env.num_states(), env.num_actions());
        // Shared Qmax BRAM init file (same stream as single-pipeline
        // configurations: seed bank 0).
        let mut qmax_mem = vec![(V::zero(), 0 as Action); s];
        let mut init_rng = Lfsr32::new(
            SeedSequence::new(config.trainer.seed).derive(seed_unit::of(0, seed_unit::QMAX_INIT)),
        );
        for e in &mut qmax_mem {
            e.1 = init_rng.below(a as u32);
        }
        Self {
            num_states: s,
            num_actions: a,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            q_mem: vec![V::zero(); s * a],
            qmax_mem,
            rewards: RewardTable::from_env(env),
            pending_q: [InFlight::new(V::zero()), InFlight::new(V::zero())],
            pending_qmax: [InFlight::new((V::zero(), 0)), InFlight::new((V::zero(), 0))],
            agents: [
                AgentCtx::new(config.trainer.seed, 0),
                AgentCtx::new(config.trainer.seed, 1),
            ],
            cycle: 0,
            samples: 0,
            fwd_q: 0,
            fwd_qmax: 0,
            qmax_writes: 0,
            q_collisions: 0,
            qmax_collisions: 0,
            config,
        }
    }

    /// Read Q(s, a) at `cycle` through pipeline `p`'s forwarding network.
    fn read_q(&mut self, p: usize, s: State, a: Action, cycle: u64) -> V {
        let idx = sa_index(s, a, self.num_actions);
        let (v, forwarded) = read_shared(&mut self.q_mem, &mut self.pending_q, p, idx, cycle);
        self.fwd_q += u64::from(forwarded);
        v
    }

    /// Read the Qmax entry for `s` at `cycle` through pipeline `p`'s
    /// forwarding network.
    fn read_qmax(&mut self, p: usize, s: State, cycle: u64) -> (V, Action) {
        let (v, forwarded) = read_shared(
            &mut self.qmax_mem,
            &mut self.pending_qmax,
            p,
            s as usize,
            cycle,
        );
        self.fwd_qmax += u64::from(forwarded);
        v
    }

    /// Pipeline `p`'s stage-1 behaviour action for `s` through `unit`.
    fn select_behavior(&mut self, unit: PolicyUnit, p: usize, s: State, cycle: u64) -> Action {
        match unit.draw(&mut self.agents[p].behavior_rng, self.num_actions) {
            Some(a) => a,
            None => self.read_qmax(p, s, cycle).1,
        }
    }

    /// Pipeline `p`'s stage-2 update selection through `unit`: the next
    /// action and its Q operand.
    fn select_update(
        &mut self,
        unit: PolicyUnit,
        p: usize,
        s_next: State,
        cycle: u64,
    ) -> (Action, V) {
        match unit.draw(&mut self.agents[p].update_rng, self.num_actions) {
            Some(a) => (a, self.read_q(p, s_next, a, cycle)),
            None => {
                let (v, a) = self.read_qmax(p, s_next, cycle);
                (a, v)
            }
        }
    }

    /// Advance one clock: both pipelines retire one sample each.
    pub fn step_cycle<E: Environment>(&mut self, env: &E) -> [Transition<V>; 2] {
        let [behavior, update] = PolicyUnit::resolve(&self.config.trainer);
        let c1 = self.cycle;
        let write_cycle = c1 + WRITE_OFFSET;
        let mut results: [Option<Transition<V>>; 2] = [None, None];
        let mut writes: [Option<(usize, V, State, Action)>; 2] = [None, None];

        for p in 0..2 {
            // Stage 1.
            let (s, a) = match self.agents[p].carry.take() {
                None => {
                    let s = env.random_start(&mut self.agents[p].start_rng);
                    let a = self.select_behavior(behavior, p, s, c1);
                    (s, a)
                }
                Some((s, Some(a))) => (s, a),
                Some((s, None)) => {
                    let a = self.select_behavior(behavior, p, s, c1);
                    (s, a)
                }
            };
            let s_next = env.transition(s, a);
            let r = self.rewards.get(s, a);
            let q_sa = self.read_q(p, s, a, c1);
            // Stage 2.
            let (a_next, q_next) = self.select_update(update, p, s_next, c1 + 1);
            // Stage 3.
            let q_new = self
                .one_minus_alpha
                .mul(q_sa)
                .add(self.alpha_v.mul(r))
                .add(self.alpha_gamma.mul(q_next));
            writes[p] = Some((sa_index(s, a, self.num_actions), q_new, s, a));
            self.agents[p].carry = if env.is_terminal(s_next) {
                None
            } else {
                Some((
                    s_next,
                    if self.config.trainer.forward_next_action {
                        Some(a_next)
                    } else {
                        None
                    },
                ))
            };
            results[p] = Some(Transition {
                s,
                a,
                r,
                s_next,
                a_next,
                q_new,
            });
        }

        // Stage 4: writeback. Both writes commit at `write_cycle`; a
        // same-address pair is a collision, which port A wins at commit
        // (`commit_shared`). The losing write stays visible to its own
        // pipeline's forwarding network (the datapath tap) until then.
        let (w0, w1) = (writes[0].unwrap(), writes[1].unwrap());
        if w0.0 == w1.0 {
            self.q_collisions += 1;
        }
        for (p, w) in [(0usize, w0), (1usize, w1)] {
            self.pending_q[p].push(Pending {
                commit_cycle: write_cycle,
                addr: w.0,
                value: w.1,
            });
        }
        // Qmax read-modify-write per pipeline, then arbitration.
        let mut qmax_writes: [Option<(usize, (V, Action))>; 2] = [None, None];
        for (p, w) in [(0usize, w0), (1usize, w1)] {
            let idx = w.2 as usize;
            let ((current, _), _) = read_shared(
                &mut self.qmax_mem,
                &mut self.pending_qmax,
                p,
                idx,
                write_cycle,
            );
            if w.1.vcmp(current) == core::cmp::Ordering::Greater {
                qmax_writes[p] = Some((idx, (w.1, w.3)));
            }
        }
        if matches!((qmax_writes[0], qmax_writes[1]),
            (Some((a0, _)), Some((a1, _))) if a0 == a1)
        {
            self.qmax_collisions += 1;
        }
        for (p, w) in qmax_writes.into_iter().enumerate() {
            if let Some((addr, value)) = w {
                self.qmax_writes += 1;
                self.pending_qmax[p].push(Pending {
                    commit_cycle: write_cycle,
                    addr,
                    value,
                });
            }
        }

        self.cycle += 1;
        self.samples += 2;
        [results[0].take().unwrap(), results[1].take().unwrap()]
    }

    /// Run `cycles` clock cycles (2 samples each).
    pub fn train_cycles<E: Environment>(&mut self, env: &E, cycles: u64) -> CycleStats {
        for _ in 0..cycles {
            self.step_cycle(env);
        }
        self.stats()
    }

    /// Merged cycle counters: 2 samples per cycle.
    pub fn stats(&self) -> CycleStats {
        CycleStats {
            cycles: if self.cycle == 0 {
                0
            } else {
                self.cycle + FILL
            },
            samples: self.samples,
            stalls: 0,
            fill_bubbles: FILL,
            forwards: self.fwd_q + self.fwd_qmax,
        }
    }

    /// Same-cycle Q-write collisions (one write lost each).
    pub fn q_collisions(&self) -> u64 {
        self.q_collisions
    }

    /// Same-cycle Qmax-write collisions.
    pub fn qmax_collisions(&self) -> u64 {
        self.qmax_collisions
    }

    /// A perf-counter snapshot over the shared-table unit, keyed to the
    /// same register map as the single-pipeline bank (DESIGN.md §2.6).
    /// Derived counters: samples/fill from the clock bookkeeping, one Q
    /// write per retired sample, and port-arbitration losses surfaced as
    /// [`CounterId::PortConflicts`]. Counters this unit does not model
    /// (per-port read totals, LFSR draws) stay zero.
    pub fn counters(&self) -> CounterBank {
        let mut bank = CounterBank::new();
        bank.add(CounterId::SamplesRetired, self.samples);
        bank.add(CounterId::FillCycles, FILL);
        bank.add(CounterId::QWrites, self.samples);
        bank.add(CounterId::QmaxWrites, self.qmax_writes);
        bank.add(CounterId::FwdQHit, self.fwd_q);
        bank.add(CounterId::FwdQmaxHit, self.fwd_qmax);
        bank.add(
            CounterId::PortConflicts,
            self.q_collisions + self.qmax_collisions,
        );
        bank
    }

    /// The shared Q-table (committed image plus the in-flight writes,
    /// applied as they will commit).
    pub fn q_table(&self) -> QTable<V> {
        let mut mem = self.q_mem.clone();
        // Commit order, with port A's write last within a cycle (the
        // stable sort keeps port B's first).
        let mut all: Vec<Pending<V>> = self.pending_q.iter().rev().flat_map(|r| r.iter()).collect();
        all.sort_by_key(|w| w.commit_cycle);
        for w in all {
            mem[w.addr] = w.value;
        }
        let mut q = QTable::new(self.num_states, self.num_actions);
        for s in 0..self.num_states as State {
            for a in 0..self.num_actions as Action {
                q.set(s, a, mem[sa_index(s, a, self.num_actions)]);
            }
        }
        q
    }

    /// Exact greedy policy from the shared table.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.q_table().greedy_policy()
    }

    /// Resources: two datapaths (2× DSP/FF/LUT), *shared* tables — the
    /// paper's point that dual-port BRAM gives the second pipeline for
    /// free memory-wise.
    pub fn resources(&self) -> AccelResources {
        let kind = engine_kind(&self.config);
        let single = resource_report(self.num_states, self.num_actions, V::storage_bits(), kind);
        let mut r = analyze(
            self.num_states,
            self.num_actions,
            V::storage_bits(),
            kind,
            &self.config,
            2.0,
        );
        r.report.dsp = 2 * single.dsp;
        r.report.ff = 2 * single.ff;
        r.report.lut = 2 * single.lut;
        r.utilization = r.report.utilization(&self.config.device);
        r.power_mw = self.config.power.power_mw(&r.report, r.fmax_mhz);
        r
    }
}

/// Retire both pipelines' writes due before `cycle` into the shared
/// memory `mem`: port B's (pipeline 1's) first, so port A's write lands
/// last and wins a same-cycle collision. Every read drains, and each
/// pipeline writes each memory once per cycle, so one drain only ever
/// retires writes of a single commit cycle: this order is the
/// arbitration.
fn commit_shared<T: Copy>(mem: &mut [T], rings: &mut [InFlight<T>; 2], cycle: u64) {
    for ring in rings.iter_mut().rev() {
        while let Some(w) = ring.pop_due(cycle) {
            mem[w.addr] = w.value;
        }
    }
}

/// Read `addr` of a shared memory at `cycle` through pipeline `p`'s
/// forwarding network: its own in-flight writes bypass, the other
/// pipeline's are invisible (the design has no cross-pipeline
/// forwarding). Returns the value and whether it was forwarded.
fn read_shared<T: Copy>(
    mem: &mut [T],
    rings: &mut [InFlight<T>; 2],
    p: usize,
    addr: usize,
    cycle: u64,
) -> (T, bool) {
    commit_shared(mem, rings, cycle);
    match rings[p].newest(addr) {
        Some(w) => (w.value, true),
        None => (mem[addr], false),
    }
}

/// One shard's slice of a [`train_batch`] run.
///
/// [`train_batch`]: IndependentPipelines::train_batch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRun {
    /// Pipeline (= BRAM bank) index.
    pub pipeline: usize,
    /// Samples assigned to this shard by the deterministic split.
    pub samples: u64,
    /// Deterministic chunk size the work queue re-entered the shard at.
    pub chunk: u64,
}

/// What a [`train_batch`] call did: merged cycle counters plus the
/// per-shard plan, for scaling reports.
///
/// [`train_batch`]: IndependentPipelines::train_batch
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Merged cycle counters (wall-clock = slowest shard, samples sum).
    pub stats: CycleStats,
    /// Worker threads in the executor that ran the batch.
    pub workers: usize,
    /// The deterministic per-shard plan that was executed.
    pub shards: Vec<ShardRun>,
    /// Cumulative iterations whose events the attached sinks have had to
    /// drop, summed across banks as of batch completion (bounded sinks
    /// like `RingSink` evict; an event-bearing sink makes every entry
    /// point, `train_batch` included, run the cycle-accurate engine,
    /// which emits every event). Zero for unbounded and no-op sinks — a
    /// nonzero value flags that the retained trace is *not* the complete
    /// run.
    pub dropped_iterations: u64,
    /// Spans evicted from the attached [`SpanTracer`]'s bounded ring as
    /// of batch completion (cumulative, like `dropped_iterations`).
    /// Zero with no tracer attached — nonzero flags that the retained
    /// span tree is *not* the complete batch.
    pub dropped_spans: u64,
    /// The batch's root span context, when a tracer was attached: the
    /// trace id every chunk/checkpoint/scrub span of this batch nests
    /// under, and the parent to tag follow-on events (e.g. watchdog
    /// alerts) into the same trace.
    pub trace: Option<SpanContext>,
}

/// Where [`train_batch_durable`] keeps shard `i`'s checkpoint inside its
/// checkpoint directory.
///
/// [`train_batch_durable`]: IndependentPipelines::train_batch_durable
pub fn shard_checkpoint_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("shard{i}.ckpt"))
}

/// The deterministic split of a `total`-sample batch over `shards`
/// shards: shard `i` gets `total/P`, plus one of the `total % P`
/// remainder samples for `i < total % P`. Every batch path and the
/// cluster's lease budgets use this one rule, so their totals compose
/// bit-exactly.
pub fn shard_budgets(total: u64, shards: usize) -> Vec<u64> {
    let p = shards as u64;
    let (base, extra) = (total / p, total % p);
    (0..p).map(|i| base + u64::from(i < extra)).collect()
}

/// Where a durable restore or save records its span: the tracer and the
/// parent context, or `None` for an untraced lease.
type SpanParent<'a> = Option<(&'a SpanTracer, SpanContext)>;

/// Run `f` inside a span named `name` (lane = shard) under `parent`.
fn in_span<T>(
    parent: SpanParent<'_>,
    name: &'static str,
    shard: usize,
    ordinal: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some((tracer, ctx)) = parent else {
        return f();
    };
    let span = tracer.begin(ctx.trace, Some(ctx.span), name, shard as u32, ordinal);
    let out = f();
    tracer.end(span);
    out
}

/// One durable shard lease: open (restore, fence, sweep), advance
/// (train, save on cadence), seal. The one driver behind
/// `train_shard_durable` (one lease under the caller's epoch, on the
/// calling thread) and `train_batch_durable` (P leases at epoch 0,
/// advanced on the executor).
#[derive(Clone)]
struct ShardLease {
    shard: usize,
    path: PathBuf,
    checkpoint_every: u64,
}

impl ShardLease {
    /// Take shard `shard` of `dir` under `epoch`: restore its checkpoint
    /// if one exists (its progress counts against the target), refuse if
    /// that checkpoint was sealed under a newer epoch, and sweep this
    /// shard's staging orphan.
    fn open<V: QValue, S: TraceSink>(
        pipe: &mut AccelPipeline<V, S>,
        dir: &Path,
        shard: usize,
        epoch: u64,
        checkpoint_every: u64,
        span: SpanParent<'_>,
    ) -> Result<Self, LeaseError> {
        assert!(checkpoint_every > 0, "checkpoint cadence must be nonzero");
        std::fs::create_dir_all(dir).map_err(CheckpointError::from)?;
        let path = shard_checkpoint_path(dir, shard);
        match in_span(span, "checkpoint_restore", shard, 0, || {
            pipe.restore_checkpoint(&path)
        }) {
            Ok(()) => {}
            Err(CheckpointError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        // Fencing: a checkpoint stamped by a newer assignment means this
        // lease was reassigned out from under the caller.
        if pipe.lease_epoch() > epoch {
            return Err(LeaseError::FencedEpoch {
                held: epoch,
                found: pipe.lease_epoch(),
            });
        }
        pipe.set_lease_epoch(epoch);
        // Crash hygiene, lease-scoped: sweep only *this shard's* staging
        // file, and only after the fence check. Sibling shards (other
        // workers, or the other shards of a batch) may be
        // mid-`atomic_write` in the same directory; deleting *their*
        // staging files would fail their renames. The lease gives us
        // unique live ownership of this shard, so the only
        // `shard<N>.ckpt.tmp` we can meet is a dead predecessor's orphan.
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        match std::fs::remove_file(&tmp) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(CheckpointError::from(e).into()),
        }
        Ok(Self {
            shard,
            path,
            checkpoint_every,
        })
    }

    /// Train `take` more samples, saving whenever the retired count
    /// crosses a multiple of the cadence (the save span's ordinal), and
    /// return the retired count.
    fn advance<V: QValue, S: TraceSink, E: Environment>(
        &self,
        pipe: &mut AccelPipeline<V, S>,
        env: &E,
        take: u64,
        span: SpanParent<'_>,
    ) -> Result<u64, CheckpointError> {
        let every = self.checkpoint_every;
        let before = pipe.stats().samples;
        pipe.run_samples_fast(env, take);
        let after = pipe.stats().samples;
        if before / every != after / every {
            in_span(span, "checkpoint_save", self.shard, after / every, || {
                pipe.save_checkpoint(&self.path)
            })?;
        }
        Ok(after)
    }

    /// Seal: make the shard's final state durable under the lease's
    /// epoch, and return the retired count.
    fn seal<V: QValue, S: TraceSink>(
        &self,
        pipe: &AccelPipeline<V, S>,
        span: SpanParent<'_>,
    ) -> Result<u64, CheckpointError> {
        let samples = pipe.stats().samples;
        let ordinal = samples / self.checkpoint_every + 1;
        in_span(span, "checkpoint_save", self.shard, ordinal, || {
            pipe.save_checkpoint(&self.path)
        })?;
        Ok(samples)
    }
}

/// Why a lease-granular durable run ([`train_shard_durable`]) was
/// refused.
///
/// [`train_shard_durable`]: IndependentPipelines::train_shard_durable
#[derive(Debug)]
pub enum LeaseError {
    /// The shard checkpoint could not be read, restored, or written.
    Checkpoint(CheckpointError),
    /// The on-disk checkpoint was sealed under a *newer* fencing epoch
    /// than the caller holds: the lease was reassigned and this caller
    /// is a zombie. Training is refused so a superseded worker can
    /// never clobber the live assignment's state.
    FencedEpoch {
        /// The epoch the caller holds its lease under.
        held: u64,
        /// The newer epoch found stamped in the checkpoint.
        found: u64,
    },
}

impl From<CheckpointError> for LeaseError {
    fn from(e: CheckpointError) -> Self {
        LeaseError::Checkpoint(e)
    }
}

impl core::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LeaseError::Checkpoint(e) => write!(f, "lease checkpoint error: {e}"),
            LeaseError::FencedEpoch { held, found } => write!(
                f,
                "lease fenced: caller holds epoch {held} but the checkpoint \
                 was sealed under epoch {found} (lease was reassigned)"
            ),
        }
    }
}

impl std::error::Error for LeaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LeaseError::Checkpoint(e) => Some(e),
            LeaseError::FencedEpoch { .. } => None,
        }
    }
}

/// One pipeline's share of a batch, moved into the executor and back.
struct PipeShard<V, S: TraceSink, E> {
    index: usize,
    pipe: Box<AccelPipeline<V, S>>,
    env: E,
    /// The durable lease each chunk advances; `None` runs the fast path.
    lease: Option<ShardLease>,
    chunk: u64,
    left: u64,
    /// The next chunk span's ordinal.
    chunks_run: u64,
    /// The tracer and the batch root the chunk spans nest under.
    tracing: Option<(Arc<SpanTracer>, SpanContext)>,
    /// The shard's first checkpoint save error.
    failed: Option<CheckpointError>,
}

impl<V, S, E> Shard for PipeShard<V, S, E>
where
    V: QValue,
    S: TraceSink + Send + 'static,
    E: Environment + Send + 'static,
{
    fn run_chunk(&mut self) -> bool {
        let take = self.chunk.min(self.left);
        let lane = self.index as u32;
        let scrub_rounds = |p: &AccelPipeline<V, S>| p.fault_stats().map_or(0, |f| f.scrub_rounds);
        let scrub_before = scrub_rounds(&self.pipe);
        let span = self.tracing.as_ref().map(|(tracer, root)| {
            (
                &**tracer,
                tracer.begin(root.trace, Some(root.span), "chunk", lane, self.chunks_run),
            )
        });
        // Cadence saves nest under the chunk that crossed the boundary.
        let parent = span
            .as_ref()
            .map(|(tracer, span)| (*tracer, span.context()));
        // Either way the chunk runs the fast path's one dispatch rule.
        let saved = match &self.lease {
            None => {
                self.pipe.run_samples_fast(&self.env, take);
                Ok(())
            }
            Some(lease) => lease
                .advance(&mut self.pipe, &self.env, take, parent)
                .map(drop),
        };
        if let Some((tracer, span)) = span {
            let (ctx, scrub_after) = (span.context(), scrub_rounds(&self.pipe));
            if scrub_after > scrub_before {
                tracer.instant(ctx.trace, Some(ctx.span), "scrub", lane, scrub_after);
            }
            tracer.end(span);
        }
        if let Err(e) = saved {
            self.failed.get_or_insert(e);
        }
        self.chunks_run += 1;
        self.left -= take;
        self.left > 0
    }
}

/// N independent pipelines over disjoint sub-environments (Fig. 9).
///
/// Generic over a [`TraceSink`] (default [`NullSink`] = telemetry off,
/// zero cost): attach one sink per bank via
/// [`with_sinks`](Self::with_sinks) and each pipeline keeps its own
/// counter bank, mirroring the hardware where every memory bank carries
/// its own monitor registers.
///
/// Four entry points train the banks:
/// - [`train_batch`](Self::train_batch) splits a total budget over the
///   banks and runs every shard through the fast path on a persistent
///   [`ShardedExecutor`] — the process-global pool by default, or a
///   caller-supplied one via [`with_executor`](Self::with_executor);
/// - [`train_batch_durable`](Self::train_batch_durable) is the same
///   batch with checkpoints, resumable after a crash;
/// - [`train_shard_durable`](Self::train_shard_durable) runs one shard's
///   durable lease on the calling thread (the cluster worker's engine);
/// - [`train_samples_sequential`](Self::train_samples_sequential) runs
///   every bank on the cycle-accurate engine on the calling thread: the
///   reference the others are pinned to.
///
/// Results are bit-identical at every worker count (each pipeline's
/// samples execute strictly in order; only scheduling varies), pinned by
/// `tests/scaling.rs`.
#[derive(Debug, Clone)]
pub struct IndependentPipelines<V, S: TraceSink = NullSink> {
    /// Boxed, so a batch moves each pipeline into its shard by pointer.
    pipes: Vec<Box<AccelPipeline<V, S>>>,
    /// `None` = the process-global pool.
    executor: Option<Arc<ShardedExecutor>>,
    /// `None` = span tracing off (the default; batch paths stay on the
    /// uninstrumented fast lane, costing one `Option` test per chunk).
    tracer: Option<Arc<SpanTracer>>,
}

impl<V: QValue> IndependentPipelines<V> {
    /// One pipeline per environment, each with its own RNG seed bank and
    /// its own BRAM banks.
    pub fn new<E: Environment>(envs: &[E], config: AccelConfig) -> Self {
        assert!(!envs.is_empty(), "need at least one sub-environment");
        Self {
            pipes: envs
                .iter()
                .enumerate()
                .map(|(i, e)| Box::new(AccelPipeline::new(e, config, i as u64)))
                .collect(),
            executor: None,
            tracer: None,
        }
    }
}

impl<V: QValue, S: TraceSink> IndependentPipelines<V, S> {
    /// Instrumented construction: like [`new`](Self::new) but attaching
    /// one telemetry sink per pipeline (`sinks.len()` must equal
    /// `envs.len()`).
    pub fn with_sinks<E: Environment>(envs: &[E], config: AccelConfig, sinks: Vec<S>) -> Self {
        assert!(!envs.is_empty(), "need at least one sub-environment");
        assert_eq!(envs.len(), sinks.len(), "one sink per pipeline");
        Self {
            pipes: envs
                .iter()
                .zip(sinks)
                .enumerate()
                .map(|(i, (e, sink))| Box::new(AccelPipeline::with_sink(e, config, i as u64, sink)))
                .collect(),
            executor: None,
            tracer: None,
        }
    }

    /// Run training calls on `executor` instead of the process-global
    /// pool (e.g. a pool pinned to a specific worker count for scaling
    /// sweeps). Clones share the pool.
    pub fn with_executor(mut self, executor: Arc<ShardedExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Attach a structured span tracer: the batch entry points
    /// ([`train_batch`](Self::train_batch) and friends) start one trace
    /// per call with per-shard chunk spans (plus checkpoint and scrub
    /// children where those happen), all deterministically identified —
    /// same seed and batch plan give bit-identical span trees at any
    /// worker count. Clones share the tracer.
    pub fn with_tracer(mut self, tracer: Arc<SpanTracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// The attached span tracer, if any.
    pub fn tracer(&self) -> Option<&Arc<SpanTracer>> {
        self.tracer.as_ref()
    }

    /// Spans evicted from the attached tracer's bounded ring so far
    /// (see [`BatchReport::dropped_spans`]). Zero with no tracer.
    pub fn dropped_spans(&self) -> u64 {
        self.tracer.as_ref().map_or(0, |t| t.dropped_spans())
    }

    /// Arm fault injection on pipeline `i` (a forwarding convenience
    /// for batch tests that want scrub activity on specific shards).
    pub fn enable_faults(&mut self, i: usize, config: FaultConfig) {
        self.pipes[i].enable_faults(config);
    }

    /// Worker threads in the executor training calls run on.
    pub fn workers(&self) -> usize {
        match self.executor.as_deref() {
            Some(pool) => pool.workers(),
            None => ShardedExecutor::global().workers(),
        }
    }

    /// Pipeline `i`'s perf-counter bank (all-zero unless a
    /// counter-bearing sink is attached).
    pub fn counters(&self, i: usize) -> &CounterBank {
        self.pipes[i].counters()
    }

    /// Pipeline `i`'s attached trace sink.
    pub fn sink(&self, i: usize) -> &S {
        self.pipes[i].sink()
    }

    /// Number of pipelines.
    pub fn len(&self) -> usize {
        self.pipes.len()
    }

    /// Whether there are no pipelines (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.pipes.is_empty()
    }

    /// Run one batch on the executor: each pipeline `i` with a budget
    /// moves into a shard with a clone of `envs[i]` and spends
    /// `budgets[i]` samples in deterministic chunks, so the work queue
    /// can interleave P ≫ C shards. A chunk runs the fast path, or, in a
    /// durable batch, advances the shard's lease `leases[i]` (which runs
    /// the fast path and saves on the lease's cadence). Every pipeline is
    /// back in index order before this returns, also when a shard
    /// panicked, whose payload is resumed only then. Returns the
    /// lowest-numbered failing shard's first save error.
    ///
    /// When a tracer is attached *and* `ctx` carries a batch root, every
    /// chunk is wrapped in a `chunk` span (lane = shard index, ordinal =
    /// chunk number) under the root — span context crosses the worker
    /// threads, so one trace covers the whole batch — and a chunk in which
    /// the shard's scrub engine advanced gets a `scrub` instant child.
    /// With no tracer this costs one `Option` test per chunk.
    fn drive<E>(
        &mut self,
        envs: &[E],
        budgets: &[u64],
        ctx: Option<SpanContext>,
        leases: Option<&[ShardLease]>,
    ) -> Option<CheckpointError>
    where
        E: Environment + Clone + Send + 'static,
        S: Send + 'static,
    {
        assert_eq!(envs.len(), self.pipes.len(), "one environment per pipeline");
        assert_eq!(budgets.len(), self.pipes.len(), "one budget per pipeline");
        let tracing = self.tracer.clone().zip(ctx);
        let mut idle = Vec::new();
        let mut shards = Vec::new();
        let pipes = self.pipes.drain(..).zip(envs.iter().zip(budgets));
        for (index, (pipe, (env, &budget))) in pipes.enumerate() {
            if budget == 0 {
                idle.push((index, pipe));
                continue;
            }
            shards.push(PipeShard {
                index,
                chunk: chunk_samples(budget, pipe.num_states(), pipe.num_actions()),
                left: budget,
                chunks_run: 0,
                pipe,
                env: env.clone(),
                lease: leases.map(|leases| leases[index].clone()),
                tracing: tracing.clone(),
                failed: None,
            });
        }
        let (mut shards, panic) = match (shards.is_empty(), self.executor.as_deref()) {
            (true, _) => (Vec::new(), None),
            (false, Some(pool)) => pool.run_shards(shards),
            (false, None) => ShardedExecutor::global().run_shards(shards),
        };
        let failed = shards.iter_mut().find_map(|s| s.failed.take());
        // Shards come back in index order; idle pipelines go back at theirs.
        self.pipes.extend(shards.into_iter().map(|s| s.pipe));
        for (index, pipe) in idle {
            self.pipes.insert(index, pipe);
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        failed
    }

    /// The sequential reference for [`train_batch`](Self::train_batch):
    /// every pipeline runs `samples_each` updates on the cycle-accurate
    /// engine, to completion on the calling thread — no executor, no
    /// chunking, no kernel. The scale-out determinism tests pin every
    /// executor path bit-exactly to this.
    pub fn train_samples_sequential<E: Environment>(
        &mut self,
        envs: &[E],
        samples_each: u64,
    ) -> CycleStats {
        assert_eq!(envs.len(), self.pipes.len(), "one environment per pipeline");
        for (pipe, env) in self.pipes.iter_mut().zip(envs) {
            pipe.run_samples(env, samples_each);
        }
        self.stats()
    }

    /// The per-shard plan of a batch of `total_samples` (the split
    /// [`train_batch`](Self::train_batch) documents). With `resume`, the
    /// samples a shard has already retired (restored checkpoint progress)
    /// count against its target.
    fn batch_plan(&self, total_samples: u64, resume: bool) -> Vec<ShardRun> {
        self.pipes
            .iter()
            .zip(shard_budgets(total_samples, self.pipes.len()))
            .enumerate()
            .map(|(i, (pipe, target))| {
                let samples = if resume {
                    target.saturating_sub(pipe.stats().samples)
                } else {
                    target
                };
                ShardRun {
                    pipeline: i,
                    samples,
                    chunk: chunk_samples(samples, pipe.num_states(), pipe.num_actions()),
                }
            })
            .collect()
    }

    /// The one batch path behind [`train_batch`](Self::train_batch) and
    /// [`train_batch_durable`](Self::train_batch_durable): open the root
    /// span `name`, plan, drive, end the root, report. `durable` is the
    /// checkpoint directory and per-shard cadence of a durable batch.
    ///
    /// With a tracer attached the root starts a fresh trace whose id
    /// derives from the tracer seed and trace ordinal, with the batch
    /// total as the root's ordinal — fully deterministic for a fixed
    /// seed and call sequence. The root ends on every exit, a failed
    /// batch's included, so every span the batch recorded has its parent.
    fn batch<E>(
        &mut self,
        name: &'static str,
        envs: &[E],
        total_samples: u64,
        durable: Option<(&Path, u64)>,
    ) -> Result<BatchReport, CheckpointError>
    where
        E: Environment + Clone + Send + 'static,
        S: Send + 'static,
    {
        assert_eq!(envs.len(), self.pipes.len(), "one environment per pipeline");
        let root = self.tracer.clone().map(|t| {
            let root = t.begin(t.start_trace(), None, name, 0, total_samples);
            (t, root)
        });
        let ctx = root.as_ref().map(|(_, active)| active.context());
        let shards = self.plan_and_drive(envs, total_samples, durable, ctx);
        if let Some((tracer, active)) = root {
            tracer.end(active);
        }
        Ok(BatchReport {
            shards: shards?,
            stats: self.stats(),
            workers: self.workers(),
            dropped_iterations: self.dropped_iterations(),
            dropped_spans: self.dropped_spans(),
            trace: ctx,
        })
    }

    /// [`batch`](Self::batch)'s work under its root `ctx`. A durable
    /// batch first opens a lease per shard at epoch 0 (restore, fence,
    /// sweep), so the plan counts restored progress; after the drive it
    /// seals every shard and leaves the flight record.
    fn plan_and_drive<E>(
        &mut self,
        envs: &[E],
        total_samples: u64,
        durable: Option<(&Path, u64)>,
        ctx: Option<SpanContext>,
    ) -> Result<Vec<ShardRun>, CheckpointError>
    where
        E: Environment + Clone + Send + 'static,
        S: Send + 'static,
    {
        let tracer = self.tracer.clone();
        let under_root = tracer.as_deref().zip(ctx);
        let leases = match durable {
            None => None,
            Some((dir, every)) => Some(
                self.pipes
                    .iter_mut()
                    .enumerate()
                    .map(|(i, pipe)| ShardLease::open(pipe, dir, i, 0, every, under_root))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| match e {
                        LeaseError::Checkpoint(e) => e,
                        LeaseError::FencedEpoch { held, found } => CheckpointError::Mismatch {
                            field: "lease epoch",
                            expected: held.to_string(),
                            found: found.to_string(),
                        },
                    })?,
            ),
        };
        let shards = self.batch_plan(total_samples, leases.is_some());
        let budgets: Vec<u64> = shards.iter().map(|s| s.samples).collect();
        if let Some(e) = self.drive(envs, &budgets, ctx, leases.as_deref()) {
            return Err(e);
        }
        if let (Some(leases), Some((dir, _))) = (leases, durable) {
            for (lease, pipe) in leases.iter().zip(&self.pipes) {
                lease.seal(pipe, under_root)?;
            }
            self.write_flight_record(dir)?;
        }
        Ok(shards)
    }

    /// Health-instrumented batches leave a flight recording next to the
    /// sealed checkpoints: one probe snapshot per shard plus the seal
    /// marker — the post-mortem baseline a later crash dump is diffed
    /// against. Sealed like the checkpoints beside it: staged, fsynced,
    /// renamed. Nothing is written when no sink carries a probe.
    fn write_flight_record(&self, dir: &Path) -> Result<(), CheckpointError> {
        let snapshots: Vec<_> = self
            .pipes
            .iter()
            .filter_map(|p| p.sink().health())
            .map(|probe| probe.snapshot())
            .collect();
        if snapshots.is_empty() {
            return Ok(());
        }
        let seal_cycle = snapshots.iter().map(|s| s.cycle).max().unwrap_or(0);
        let mut recorder = qtaccel_telemetry::FlightRecorder::new(snapshots.len() + 1);
        for snap in snapshots {
            recorder.push_snapshot(snap);
        }
        recorder.push_marker(seal_cycle, "batch_seal");
        recorder.dump_to(dir.join("flight.jsonl"))?;
        Ok(())
    }

    /// Sharded batch training: split a *total* sample budget across the
    /// banks (deterministically — shard `i` gets `total/P`, plus one of
    /// the `total % P` remainder samples for `i < total % P`) and drive
    /// every shard through the fast path (`AccelPipeline::run_samples_fast`,
    /// whose one dispatch rule picks the stall-free kernel or the
    /// cycle-accurate engine). Results are bit-identical to
    /// [`train_samples_sequential`](Self::train_samples_sequential) with
    /// the same per-shard budgets, at any worker count. The batch runs on
    /// copies of `envs`: an environment's interior state changes in the
    /// copy, not in the caller's value.
    pub fn train_batch<E>(&mut self, envs: &[E], total_samples: u64) -> BatchReport
    where
        E: Environment + Clone + Send + 'static,
        S: Send + 'static,
    {
        self.batch("train_batch", envs, total_samples, None)
            .unwrap_or_else(|e| unreachable!("a batch without leases saves nothing: {e}"))
    }

    /// [`train_batch`](Self::train_batch) with crash-safe durability:
    /// every shard periodically checkpoints its full training state to
    /// `dir/shard{i}.ckpt` (atomic write-then-rename — a crash never
    /// leaves a torn file), and on entry any checkpoints already in
    /// `dir` are restored and their progress *subtracted* from the
    /// budget. Killing a run mid-batch and calling again with the same
    /// `dir` and total therefore resumes where the last checkpoint left
    /// off and converges to the same bit-exact tables as an
    /// uninterrupted run — per-shard sample streams are sequential and
    /// deterministic, so progress composes.
    ///
    /// A durable batch is P shard leases at epoch 0, run by the driver
    /// behind [`train_shard_durable`](Self::train_shard_durable): each
    /// shard restores, fence-checks and sweeps its own staging orphan,
    /// advances on the executor, and seals. A checkpoint sealed
    /// under a cluster epoch is refused like any zombie's, as
    /// [`CheckpointError::Mismatch`] on `"lease epoch"`.
    ///
    /// `checkpoint_every` is a per-shard sample cadence (a checkpoint is
    /// written whenever a shard's retired-sample count crosses a
    /// multiple of it); every shard writes one final checkpoint when the
    /// batch completes regardless. A save error returned is the
    /// lowest-numbered failing shard's first. It too runs on copies.
    pub fn train_batch_durable<E>(
        &mut self,
        envs: &[E],
        total_samples: u64,
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<BatchReport, CheckpointError>
    where
        E: Environment + Clone + Send + 'static,
        S: Send + 'static,
    {
        let durable = Some((dir, checkpoint_every));
        self.batch("train_batch_durable", envs, total_samples, durable)
    }

    /// Lease-granular durable training (the cluster worker's engine,
    /// DESIGN.md §2.16): drive **one** shard to `target_samples` total
    /// retired samples on the calling thread, checkpointing to
    /// `dir/shard{i}.ckpt` every `checkpoint_every` samples under the
    /// caller's fencing `epoch`.
    ///
    /// On entry any existing shard checkpoint is restored (this shard's
    /// stale `*.tmp` staging orphan is swept) and its progress counts
    /// against the target — a worker picking up a dead peer's lease
    /// resumes where the last durable save left off and finishes
    /// bit-identical to an uninterrupted run. If the checkpoint on disk
    /// was sealed under a **newer** epoch than `epoch`, the caller is a
    /// superseded zombie and is refused with [`LeaseError::FencedEpoch`]
    /// before it can train or write anything.
    ///
    /// `progress` is called after every chunk with the shard's total
    /// retired-sample count (a natural heartbeat cadence: chunks are the
    /// deterministic [`chunk_samples`] size). Returning `false`
    /// abandons the lease cooperatively — the last periodic checkpoint
    /// stays on disk, no seal is written, and the call returns the
    /// progress reached so far. Returns the shard's final retired-sample
    /// count (`== target_samples` when the lease sealed).
    #[allow(clippy::too_many_arguments)]
    pub fn train_shard_durable<E: Environment>(
        &mut self,
        shard: usize,
        env: &E,
        target_samples: u64,
        epoch: u64,
        dir: &Path,
        checkpoint_every: u64,
        mut progress: impl FnMut(u64) -> bool,
    ) -> Result<u64, LeaseError> {
        let pipe = &mut self.pipes[shard];
        let lease = ShardLease::open(pipe, dir, shard, epoch, checkpoint_every, None)?;
        // Lease chunks are the deterministic executor chunk, but never
        // coarser than the checkpoint cadence — otherwise a small lease
        // would run whole between durable saves and the progress
        // callback (the caller's heartbeat) would never fire mid-lease.
        let chunk = chunk_samples(
            target_samples.saturating_sub(pipe.stats().samples),
            pipe.num_states(),
            pipe.num_actions(),
        )
        .min(checkpoint_every)
        .max(1);
        while pipe.stats().samples < target_samples {
            let take = chunk.min(target_samples - pipe.stats().samples);
            let after = lease.advance(pipe, env, take, None)?;
            if !progress(after) {
                return Ok(after);
            }
        }
        Ok(lease.seal(pipe, None)?)
    }

    /// Cumulative iterations dropped by the attached sinks, summed
    /// across banks (see [`BatchReport::dropped_iterations`]).
    pub fn dropped_iterations(&self) -> u64 {
        self.pipes
            .iter()
            .map(|p| p.sink().dropped_iterations())
            .sum()
    }

    /// Merged counters: wall-clock is the slowest pipeline, samples sum.
    pub fn stats(&self) -> CycleStats {
        let mut merged = CycleStats::default();
        for p in &self.pipes {
            merged.merge(&p.stats());
        }
        merged.fill_bubbles = FILL;
        merged
    }

    /// Aggregate perf-counter snapshot over every bank: each pipeline's
    /// bank accumulates lock-free on its own shard during training, and
    /// this sums them after the join (all-zero with [`NullSink`]s).
    pub fn merged_counters(&self) -> CounterBank {
        let mut merged = CounterBank::new();
        for p in &self.pipes {
            merged.merge(p.counters());
        }
        merged
    }

    /// Aggregate health-probe snapshot across the shards: histograms
    /// merge, counters sum, coverage bitsets OR (shards share one state
    /// space, so the union is the batch's true coverage). `None` when no
    /// attached sink carries a probe.
    pub fn merged_health(&self) -> Option<qtaccel_telemetry::HealthProbe> {
        let mut probes = self.pipes.iter().filter_map(|p| p.sink().health());
        let mut merged = probes.next()?.clone();
        for probe in probes {
            merged.merge(probe);
        }
        Some(merged)
    }

    /// Restore pipeline `i` from a checkpoint file — the read side of
    /// the durable-batch/lease protocol, exposed so a supervisor can
    /// reload every shard's sealed image after a cluster run and compare
    /// it against the single-process reference.
    pub fn restore_shard_checkpoint(
        &mut self,
        i: usize,
        path: &Path,
    ) -> Result<(), CheckpointError> {
        self.pipes[i].restore_checkpoint(path)
    }

    /// Access pipeline `i`'s learned Q-table.
    pub fn q_table(&self, i: usize) -> QTable<V> {
        self.pipes[i].q_table()
    }

    /// Access pipeline `i`'s Qmax array (architectural view).
    pub fn qmax_table(&self, i: usize) -> QmaxTable<V> {
        self.pipes[i].qmax_table()
    }

    /// Greedy policy of pipeline `i`.
    pub fn greedy_policy(&self, i: usize) -> Vec<Action> {
        self.pipes[i].greedy_policy()
    }

    /// Summed resources: every pipeline brings its own tables, datapath
    /// and options (counter bank, event histogram, health probe, stored
    /// width, SECDED), each priced as [`QrlAccel::resources`] prices a
    /// single engine.
    ///
    /// [`QrlAccel::resources`]: crate::QrlAccel::resources
    pub fn resources(&self) -> qtaccel_hdl::resource::ResourceReport {
        self.pipes.iter().fold(Default::default(), |total, p| {
            total.combine(p.resources().report)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::EngineKind;
    use qtaccel_envs::{ActionSet, GridWorld, PartitionedGrid};
    use qtaccel_fixed::Q8_8;

    fn grid() -> GridWorld {
        GridWorld::builder(8, 8).goal(7, 7).build()
    }

    #[test]
    fn dual_pipeline_doubles_throughput() {
        let g = grid();
        let mut d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        let stats = d.train_cycles(&g, 10_000);
        assert_eq!(stats.samples, 20_000);
        assert_eq!(stats.cycles, 10_003);
        assert!(stats.samples_per_cycle() > 1.99);
    }

    #[test]
    fn dual_pipeline_collisions_are_counted_and_rare() {
        let g = grid();
        let mut d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        d.train_cycles(&g, 20_000);
        let rate = d.q_collisions() as f64 / 20_000.0;
        // Random agents on a 64-cell world with 4 actions collide on the
        // same (s, a) pair rarely (expected ~1/256 per cycle).
        assert!(rate < 0.05, "collision rate {rate}");
        assert!(
            d.q_collisions() > 0,
            "20k cycles on 256 pairs should collide at least once"
        );
    }

    #[test]
    fn dual_pipeline_still_learns() {
        let g = grid();
        let mut d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        d.train_cycles(&g, 200_000);
        let opt =
            qtaccel_core::eval::step_optimality(&g, &d.greedy_policy(), &g.shortest_distances());
        assert!(opt > 0.9, "step-optimality {opt}");
    }

    #[test]
    fn dual_pipeline_agents_explore_differently() {
        let g = grid();
        let mut d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        let [t0, t1] = d.step_cycle(&g);
        // Different seed banks: the two agents almost surely start in
        // different states.
        assert!(
            t0.s != t1.s || t0.a != t1.a,
            "agents should not shadow each other"
        );
    }

    #[test]
    fn dual_resources_share_bram() {
        let g = grid();
        let d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        let single = resource_report(g.num_states(), g.num_actions(), 16, EngineKind::QLearning);
        let r = d.resources();
        assert_eq!(r.report.bram36, single.bram36, "tables are shared");
        assert_eq!(r.report.dsp, 2 * single.dsp, "datapaths are duplicated");
        assert!((r.throughput_msps - 2.0 * 189.0).abs() < 1e-9);
    }

    #[test]
    fn dual_counter_snapshot_matches_bookkeeping() {
        let g = grid();
        let mut d = DualPipelineShared::<Q8_8>::new(&g, AccelConfig::default());
        let stats = d.train_cycles(&g, 20_000);
        let bank = d.counters();
        assert_eq!(bank.get(CounterId::SamplesRetired), stats.samples);
        assert_eq!(bank.get(CounterId::QWrites), stats.samples);
        assert_eq!(
            bank.get(CounterId::FwdQHit) + bank.get(CounterId::FwdQmaxHit),
            stats.forwards,
            "per-memory forward split must sum to the merged stat"
        );
        assert_eq!(
            bank.get(CounterId::PortConflicts),
            d.q_collisions() + d.qmax_collisions()
        );
        assert_eq!(bank.get(CounterId::FillCycles), stats.fill_bubbles);
        assert!(bank.get(CounterId::QmaxWrites) > 0, "greedy improves Qmax");
        assert_eq!(bank.get(CounterId::QReads), 0, "per-port reads not modeled");
    }

    #[test]
    fn independent_pipelines_carry_per_bank_counters() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(77);
        let part = PartitionedGrid::new(16, 16, 2, 2, 10, ActionSet::Four, &mut rng);
        let mut ind = IndependentPipelines::<Q8_8, _>::with_sinks(
            part.partitions(),
            AccelConfig::default(),
            vec![qtaccel_telemetry::CountersOnly; 4],
        );
        ind.train_batch(part.partitions(), 5_000 * 4);
        for i in 0..4 {
            let bank = ind.counters(i);
            assert_eq!(bank.get(CounterId::SamplesRetired), 5_000, "bank {i}");
            assert_eq!(bank.get(CounterId::QWrites), 5_000, "bank {i}");
        }
    }

    /// Every observable of three dual-pipeline runs, pinned: `stats()`,
    /// both collision counts, `counters()` and a CRC-32 of the final Q
    /// table's words. The third config makes both agents collide almost
    /// every cycle, so port A's arbitration decides nearly every write.
    #[test]
    fn dual_pipeline_bits_are_pinned() {
        struct Gold {
            w: u32,
            h: u32,
            forwards: u64,
            q_collisions: u64,
            qmax_collisions: u64,
            counters: [(CounterId, u64); 3],
            crc: u32,
        }
        let q_learning = AccelConfig::default().with_seed(0);
        let mut sarsa = q_learning;
        sarsa.trainer = qtaccel_core::trainer::TrainerConfig::sarsa(0.2).with_seed(0);
        let mut greedy_random = q_learning;
        greedy_random.trainer.behavior = qtaccel_core::policy::Policy::Greedy;
        greedy_random.trainer.update = qtaccel_core::policy::Policy::Random;
        let runs = [
            (
                q_learning,
                Gold {
                    w: 8,
                    h: 8,
                    forwards: 1_054,
                    q_collisions: 22,
                    qmax_collisions: 5,
                    counters: [
                        (CounterId::QmaxWrites, 1_403),
                        (CounterId::FwdQHit, 690),
                        (CounterId::FwdQmaxHit, 364),
                    ],
                    crc: 0x513b_a8fc,
                },
            ),
            (
                sarsa,
                Gold {
                    w: 8,
                    h: 8,
                    forwards: 2_902,
                    q_collisions: 96,
                    qmax_collisions: 6,
                    counters: [
                        (CounterId::QmaxWrites, 312),
                        (CounterId::FwdQHit, 2_902),
                        (CounterId::FwdQmaxHit, 0),
                    ],
                    crc: 0xaec5_796a,
                },
            ),
            (
                greedy_random,
                Gold {
                    w: 3,
                    h: 5,
                    forwards: 7_473,
                    q_collisions: 2_996,
                    qmax_collisions: 0,
                    counters: [
                        (CounterId::QmaxWrites, 0),
                        (CounterId::FwdQHit, 7_473),
                        (CounterId::FwdQmaxHit, 0),
                    ],
                    crc: 0x4762_d805,
                },
            ),
        ];
        for (i, (cfg, g)) in runs.into_iter().enumerate() {
            let env = GridWorld::builder(g.w, g.h).goal(g.w - 1, g.h - 1).build();
            let mut d = DualPipelineShared::<Q8_8>::new(&env, cfg);
            for _ in 0..3_000 {
                d.step_cycle(&env);
            }
            let stats = d.stats();
            let words: Vec<u8> = d
                .q_table()
                .as_slice()
                .iter()
                .flat_map(|&v| QValue::to_bits(v).to_le_bytes())
                .collect();
            let crc = qtaccel_telemetry::frame::crc32(&words);
            let bank = d.counters();
            let label = format!("config {i} ({}x{})", g.w, g.h);
            assert_eq!(
                (
                    stats.cycles,
                    stats.samples,
                    stats.stalls,
                    stats.fill_bubbles,
                    stats.forwards
                ),
                (3_003, 6_000, 0, FILL, g.forwards),
                "{label} stats"
            );
            assert_eq!(
                (d.q_collisions(), d.qmax_collisions()),
                (g.q_collisions, g.qmax_collisions),
                "{label} collisions"
            );
            let mut want = vec![
                (CounterId::SamplesRetired, 6_000),
                (CounterId::QWrites, 6_000),
                (CounterId::FillCycles, FILL),
                (CounterId::PortConflicts, g.q_collisions + g.qmax_collisions),
            ];
            want.extend(g.counters);
            for id in CounterId::ALL {
                let v = want.iter().find(|&&(w, _)| w == id).map_or(0, |&(_, v)| v);
                assert_eq!(bank.get(id), v, "{label} counter {id:?}");
            }
            assert_eq!(crc, g.crc, "{label} Q table");
        }
    }

    #[test]
    #[should_panic(expected = "forwarding design only")]
    fn dual_requires_forwarding() {
        let g = grid();
        DualPipelineShared::<Q8_8>::new(
            &g,
            AccelConfig::default().with_hazard(HazardMode::StallOnly),
        );
    }

    /// The row scan's |A|−1 stage-2 cycles would stall both pipes, which
    /// this model does not charge: the config is refused.
    #[test]
    #[should_panic(expected = "Qmax-array design only")]
    fn dual_requires_the_qmax_array() {
        let g = grid();
        DualPipelineShared::<Q8_8>::new(
            &g,
            AccelConfig::default().with_max_mode(MaxMode::ExactScan),
        );
    }

    #[test]
    fn independent_pipelines_scale_linearly() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(77);
        let part = PartitionedGrid::new(16, 16, 2, 2, 10, ActionSet::Four, &mut rng);
        let mut ind = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        assert_eq!(ind.len(), 4);
        let stats = ind.train_batch(part.partitions(), 10_000 * 4).stats;
        assert_eq!(stats.samples, 40_000);
        assert_eq!(stats.cycles, 10_003, "lockstep wall-clock");
        assert!(stats.samples_per_cycle() > 3.9);
    }

    #[test]
    fn independent_pipelines_learn_their_own_worlds() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(3);
        let part = PartitionedGrid::new(16, 8, 2, 1, 0, ActionSet::Four, &mut rng);
        let mut ind = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        ind.train_batch(part.partitions(), 200_000 * 2);
        for i in 0..2 {
            let env = part.partition(i);
            let opt = qtaccel_core::eval::step_optimality(
                env,
                &ind.greedy_policy(i),
                &env.shortest_distances(),
            );
            assert!(opt > 0.9, "partition {i} step-optimality {opt}");
        }
    }

    #[test]
    fn independent_resources_sum() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(9);
        let part = PartitionedGrid::new(16, 16, 2, 2, 0, ActionSet::Four, &mut rng);
        let ind = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        let r = ind.resources();
        assert_eq!(r.dsp, 16, "4 pipelines x 4 DSPs");
        assert!(r.bram36 >= 4 * 3, "each bank has Q+R+Qmax");
    }

    /// A bank's options cost what they cost on a single engine: four
    /// counter-bearing banks, SECDED on bank 1, price as the sum of four
    /// such engines' own reports.
    #[test]
    fn independent_resources_price_each_bank_like_its_engine() {
        let envs = vec![grid(); 4];
        let cfg = AccelConfig::default();
        let ecc = FaultConfig::default().with_ecc(true);
        let counted = vec![qtaccel_telemetry::CountersOnly; 4];
        let mut ind = IndependentPipelines::<Q8_8, _>::with_sinks(&envs, cfg, counted);
        ind.enable_faults(1, ecc);
        let mut engines = qtaccel_hdl::resource::ResourceReport::default();
        for (i, env) in envs.iter().enumerate() {
            let sink = qtaccel_telemetry::CountersOnly;
            let mut engine = AccelPipeline::<Q8_8, _>::with_sink(env, cfg, i as u64, sink);
            if i == 1 {
                engine.enable_faults(ecc);
            }
            engines = engines.combine(engine.resources().report);
        }
        assert_eq!(ind.resources(), engines);
        let bare = IndependentPipelines::<Q8_8>::new(&envs, cfg).resources();
        assert!(
            engines.lut > bare.lut && engines.ff > bare.ff,
            "the counter banks and the codec cost fabric: {engines:?} vs {bare:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sub-environment")]
    fn independent_rejects_empty() {
        IndependentPipelines::<Q8_8>::new(&[] as &[GridWorld], AccelConfig::default());
    }

    #[test]
    fn a_batch_puts_every_pipeline_back_at_its_index() {
        // Tables of four sizes tell the pipelines apart.
        let envs: Vec<GridWorld> = [2, 4, 8, 16]
            .iter()
            .map(|&side| {
                GridWorld::builder(side, side)
                    .goal(side - 1, side - 1)
                    .build()
            })
            .collect();
        let mut ind = IndependentPipelines::<Q8_8>::new(&envs, AccelConfig::default());
        for budgets in [[0, 9, 0, 9], [9, 0, 0, 9], [0; 4], [9; 4]] {
            ind.drive(&envs, &budgets, None, None);
            for (i, env) in envs.iter().enumerate() {
                assert_eq!(ind.greedy_policy(i).len(), env.num_states(), "{budgets:?}");
            }
        }
    }

    #[test]
    fn durable_batch_resumes_bit_exactly() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(21);
        let part = PartitionedGrid::new(16, 16, 2, 2, 10, ActionSet::Four, &mut rng);
        let dir = std::env::temp_dir().join(format!("qtaccel-durable-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Straight-through reference.
        let mut full = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        full.train_batch(part.partitions(), 40_000);

        // Two durable legs over the same directory: 24k, then top up to
        // the full 40k on a *fresh* instance (simulated crash between).
        let mut leg1 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        let r1 = leg1
            .train_batch_durable(part.partitions(), 24_000, &dir, 4_096)
            .expect("leg 1");
        assert_eq!(r1.stats.samples, 24_000);
        let mut leg2 = IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        let r2 = leg2
            .train_batch_durable(part.partitions(), 40_000, &dir, 4_096)
            .expect("leg 2");
        assert_eq!(r2.stats.samples, 40_000, "restored progress counts");
        assert_eq!(
            r2.shards.iter().map(|s| s.samples).sum::<u64>(),
            16_000,
            "only the remainder is re-run"
        );
        for i in 0..4 {
            assert_eq!(leg2.q_table(i), full.q_table(i), "bank {i} q");
            assert_eq!(leg2.qmax_table(i), full.qmax_table(i), "bank {i} qmax");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_batch_is_fenced_by_a_cluster_epoch() {
        let mut rng = qtaccel_hdl::lfsr::Lfsr32::new(8);
        let part = PartitionedGrid::new(16, 8, 2, 1, 0, ActionSet::Four, &mut rng);
        let dir =
            std::env::temp_dir().join(format!("qtaccel-durable-fenced-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A cluster lease seals shard 1 under epoch 3.
        let mut worker =
            IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        worker
            .train_shard_durable(1, part.partition(1), 5_000, 3, &dir, 1_024, |_| true)
            .expect("cluster lease");
        // A durable batch holds epoch 0 on every shard: it is the zombie.
        let mut batch =
            IndependentPipelines::<Q8_8>::new(part.partitions(), AccelConfig::default());
        match batch.train_batch_durable(part.partitions(), 10_000, &dir, 1_024) {
            Err(CheckpointError::Mismatch {
                field,
                expected,
                found,
            }) => {
                assert_eq!(
                    (field, expected.as_str(), found.as_str()),
                    ("lease epoch", "0", "3")
                );
            }
            other => panic!("expected a lease-epoch mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
