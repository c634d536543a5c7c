//! The cycle-accurate 4-stage pipeline core (Fig. 1).
//!
//! ## Stage timing
//!
//! Iteration *i* enters stage 1 at cycle `c1(i)` and proceeds one stage
//! per cycle:
//!
//! | cycle      | stage | work |
//! |------------|-------|------|
//! | `c1`       | 1     | state select (random start or forwarded Sₜ₊₁), behaviour action, transition function, issue Q(Sₜ,Aₜ) and R(Sₜ,Aₜ) reads, derive `1−α`, `α·γ` |
//! | `c1+1`     | 2     | update-policy action for Sₜ₊₁, issue Q(Sₜ₊₁,Aₜ₊₁) / Qmax(Sₜ₊₁) read |
//! | `c1+2`     | 3     | three multiplies + adder tree (Eq. 3) |
//! | `c1+3`     | 4     | write back Q(Sₜ,Aₜ); monotone Qmax update |
//!
//! With no stalls, `c1(i+1) = c1(i) + 1` — one sample per clock after the
//! 3-cycle fill.
//!
//! ## Hazards
//!
//! A BRAM write issued at cycle `w` is visible only to reads issued at
//! cycles `> w` (read-first port semantics). Consecutive iterations
//! re-read locations the previous 1–3 iterations are still updating, so
//! the design needs the forwarding network of [`HazardMode::Forwarding`]:
//! every read consults the writes still in flight and the youngest
//! matching value bypasses the BRAM. The model implements all three
//! hazard policies of [`HazardMode`] over an explicitly *delayed* memory
//! image: each memory (the Q BRAM and the Qmax array) is one bank that
//! holds the committed image, the in-flight (commit-cycle, address,
//! value) writes and the forwarding network's visibility horizon, so
//! stale reads in `Ignore` mode are real stale values, not emulation
//! shortcuts.
//!
//! ## Host-side cost of the forwarding network
//!
//! Each bank's in-flight writes are committed once per step (the
//! per-step commit point at the top of [`QrlAccel::step`]) instead
//! of before every read. A write commits `WRITE_OFFSET` = 3 cycles after
//! its stage 1, so after that commit at most three older writes per
//! memory are still in flight, and the step adds one: each bank's
//! writes sit in a fixed ring of `PIPE_DEPTH` = 4 slots, and a read
//! finds its newest in-flight writer in at most four compares, newest
//! first. Reads that race a write committing mid-step compare the
//! entry's commit cycle against the bank's horizon, so
//! cycle/stall/forward/bubble counters are bit-identical to the
//! scan-per-read formulation (pinned by the
//! `hazard_mode_cycle_stats_are_pinned` regression test). The step and
//! every per-sample helper on its path are `#[inline(always)]`, so
//! [`QrlAccel::run_samples`] is one loop per hazard mode, each with its
//! mode's read path specialised. Each policy fixture has its own copy of
//! those loops, and a fixture that fixes its policies' kinds
//! ([`Fixture`]) has the per-sample policy dispatch folded away in its
//! copy. A loop holds only per-sample work, the transition unit
//! included (see *Reward tables*). What does not run on
//! every sample is a call, so its code stays out of the loops: the
//! start-state selector, once per episode; the |A|-read row scan, only
//! under [`MaxMode::ExactScan`] (the design point §V-A removes); and the
//! fault runtime's hook, only when one is attached. This is the
//! cycle-accurate engine. [`QrlAccel::run_samples_fast`] is the
//! bit-exact fast path with one dispatch rule: the stall-free kernel,
//! which skips the per-cycle bookkeeping entirely, for the
//! configurations it accepts, and this engine for every other.
//!
//! ## Reward tables
//!
//! Each executor owns the one reward table it reads and builds it on
//! first use, from one sweep of the environment that converts each
//! distinct reward value once (`qtaccel_envs::RewardMemo`): the
//! cycle-accurate engine its reward ROM on its first step, the
//! stall-free kernel its image on its first call. The kernel's image is
//! one `u32` word per (s, a), next state, terminal flag and an 8-bit
//! index into a table of the environment's distinct α·R values, which
//! the kernel adds where Eq. (3) multiplies α·R; it reads and writes
//! the Q BRAM image in place, whatever the stored format, so a call
//! copies no table. An environment with more than 256 distinct α·R
//! values runs the cycle-accurate engine from the fast entry point. A
//! table is a pure function of the environment and the stored format in
//! force, so `enable_quant` and a checkpoint restore drop every table
//! (and a refused image) instead of re-snapping it in place. The
//! cycle-accurate engine keeps no transition table: its transition unit
//! is the environment's own `Environment::transition`, in line in each
//! loop. A grid world computes that unit once, at build, as the paper's
//! combinational module is fixed at synthesis: a legal-move byte per
//! state and an address offset per action, so a transition is a byte
//! load, a bit test and an add (`GridWorld::transition` is
//! `#[inline(always)]`).
//!
//! ## §VII-B units
//!
//! A customization fixture ([`Fixture`]) adds units the §V fixtures do
//! not have, and the §V engine copies fold every site of them away: a
//! noisy reward unit (R(s, a) plus `reward_std(s, a)` times an Irwin–Hall
//! sample), a probability-table policy unit (a third bank, P, searched by
//! a selection in `⌈log₂|A|⌉` cycles and written in stage 4) and a
//! transition unit that draws from its own LFSR. They run on the
//! cycle-accurate engine, which the fast entry point dispatches them to.

use std::marker::PhantomData;
use std::path::Path;

use crate::checkpoint::{self, below, counter, index, probability, same, CheckpointError};
use crate::config::{AccelConfig, HazardMode};
use crate::fault::{strike_word, FaultConfig, FaultRt, FaultStats, LatentError};
use crate::prob_engine::WeightRule;
use qtaccel_core::bandit::{exp3_gain, exp3_mix};
use qtaccel_core::policy::{draw_weighted, running_sums, Policy};
use qtaccel_core::qtable::{MaxMode, QTable, QmaxTable};
use qtaccel_core::trainer::{seed_unit, TrainerConfig, Transition};
use qtaccel_envs::{sa_index, Action, Environment, RewardMemo, RewardTable, State};
use qtaccel_fixed::{QValue, QuantPolicy};
use qtaccel_hdl::explut::ExpLut;
use qtaccel_hdl::lfsr::{Lfsr32, NormalLfsr};
use qtaccel_hdl::pipeline::CycleStats;
use qtaccel_hdl::rng::{epsilon_to_q32, RngSource, SeedSequence};
use qtaccel_telemetry::frame::{WordReader, WordWriter};
use qtaccel_telemetry::{CounterBank, CounterId, Event, MemKind, NullSink, TraceSink};

/// Stage-4 offset from stage 1.
pub(crate) const WRITE_OFFSET: u64 = 3;
/// Pipeline fill depth (cycles before the first retirement).
pub(crate) const FILL: u64 = 3;

/// A write travelling down the pipe, not yet visible in the BRAM image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Pending<T> {
    pub(crate) commit_cycle: u64,
    pub(crate) addr: usize,
    pub(crate) value: T,
}

/// Capacity of an in-flight write ring: the pipe depth. A write commits
/// [`WRITE_OFFSET`] cycles after its iteration's stage 1, and the
/// per-step commit point retires every write due before the next stage
/// 1, so at most this many writes to one memory are in flight at a step
/// boundary.
const PIPE_DEPTH: usize = WRITE_OFFSET as usize + 1;

/// The writes in flight to one memory, oldest first, in a fixed ring of
/// [`PIPE_DEPTH`] slots. Pushes carry strictly increasing commit cycles
/// and commits retire from the front, so ring order is commit order and
/// the newest writer to an address is its last match.
#[derive(Debug, Clone)]
pub(crate) struct InFlight<T> {
    slots: [Pending<T>; PIPE_DEPTH],
    /// Slot of the oldest write.
    head: usize,
    len: usize,
}

impl<T: Copy> InFlight<T> {
    /// An empty ring; `fill` only initialises the unused slots.
    pub(crate) fn new(fill: T) -> Self {
        Self {
            slots: [Pending {
                commit_cycle: 0,
                addr: NO_ADDR,
                value: fill,
            }; PIPE_DEPTH],
            head: 0,
            len: 0,
        }
    }

    /// The `i`-th oldest write in flight (`i < len`).
    #[inline(always)]
    fn get(&self, i: usize) -> Pending<T> {
        self.slots[(self.head + i) % PIPE_DEPTH]
    }

    /// Queue a write behind every write in flight. The pipe never holds
    /// more than its depth; a restored checkpoint is checked against the
    /// same bound by [`try_push`](Self::try_push).
    #[inline(always)]
    pub(crate) fn push(&mut self, p: Pending<T>) {
        assert!(
            self.len < PIPE_DEPTH,
            "more writes in flight than the pipe is deep"
        );
        self.slots[(self.head + self.len) % PIPE_DEPTH] = p;
        self.len += 1;
    }

    /// Queue a write decoded from a checkpoint, refusing a queue no pipe
    /// can hold: more than [`PIPE_DEPTH`] writes, or commit cycles that
    /// do not strictly increase.
    fn try_push(&mut self, field: &'static str, p: Pending<T>) -> Result<(), CheckpointError> {
        if self.len == PIPE_DEPTH
            || self.len > 0 && p.commit_cycle <= self.get(self.len - 1).commit_cycle
        {
            return Err(CheckpointError::Mismatch {
                field,
                expected: format!("at most {PIPE_DEPTH} writes, commit cycles strictly increasing"),
                found: format!(
                    "write {} committing at cycle {}",
                    self.len + 1,
                    p.commit_cycle
                ),
            });
        }
        self.push(p);
        Ok(())
    }

    /// Retire the oldest write if it commits before `cycle`.
    #[inline(always)]
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<Pending<T>> {
        let p = self.slots[self.head];
        if self.len > 0 && p.commit_cycle < cycle {
            self.head = (self.head + 1) % PIPE_DEPTH;
            self.len -= 1;
            Some(p)
        } else {
            None
        }
    }

    /// The newest in-flight write to `addr`: at most [`PIPE_DEPTH`]
    /// compares, newest first.
    #[inline(always)]
    pub(crate) fn newest(&self, addr: usize) -> Option<Pending<T>> {
        (0..self.len)
            .rev()
            .map(|i| self.get(i))
            .find(|p| p.addr == addr)
    }

    /// The writes in flight, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Pending<T>> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// One memory of the pipe, the Q BRAM or the Qmax array: its committed
/// image, the writes in flight to it, and the forwarding network's
/// visibility horizon.
#[derive(Debug, Clone)]
pub(crate) struct Bank<T> {
    /// Which memory this is, for the events it records.
    kind: MemKind,
    /// The committed image (the BRAM contents).
    mem: Vec<T>,
    /// The writes in flight, oldest first.
    ring: InFlight<T>,
    /// The BRAM controller retires every write due before the highest
    /// cycle it has serviced so far — notably the stage-4
    /// read-modify-write at `c1 + 3`, which runs *ahead* of the next
    /// iteration's stage-1/2 reads. A write whose commit cycle falls
    /// below this horizon has left the pipe and is invisible to the
    /// forwarding network (no forward counted, no stall imposed) even
    /// for a read issued before its commit cycle.
    horizon: u64,
}

impl<T: Copy> Bank<T> {
    /// A bank holding `mem` (non-empty), with nothing in flight.
    fn new(kind: MemKind, mem: Vec<T>) -> Self {
        // The fill of unused ring slots is never read.
        let ring = InFlight::new(mem[0]);
        Self {
            kind,
            mem,
            ring,
            horizon: 0,
        }
    }

    /// Retire every write due before `cycle` into the image, oldest
    /// first.
    #[inline(always)]
    fn commit_until<S: TraceSink>(&mut self, cycle: u64, sink: &mut S) {
        while let Some(p) = self.ring.pop_due(cycle) {
            if S::EVENTS {
                sink.record(&Event::Commit {
                    cycle: p.commit_cycle,
                    mem: self.kind,
                    addr: p.addr as u64,
                });
            }
            self.mem[p.addr] = p.value;
        }
    }

    /// Serve a read of `addr` issued at `cycle`: raise the horizon to
    /// `cycle`, then read the newest writer. Returns the value and, when
    /// that writer is a write still in flight past the horizon, its
    /// commit cycle. A write in flight below the horizon is *logically*
    /// committed (its value is the BRAM word the drain-per-read
    /// formulation would read, it merely has not been folded into the
    /// image yet), so it serves the value but reports no hazard.
    ///
    /// With [`HazardMode::Ignore`] there is no forwarding network: the
    /// stale image is materialised at the read cycle instead
    /// (mid-step commits are architecturally visible there; amortized
    /// O(1), as the per-step commit point has already caught the ring up
    /// to `c1`).
    #[inline(always)]
    fn read<S: TraceSink>(
        &mut self,
        addr: usize,
        cycle: u64,
        hazard: HazardMode,
        sink: &mut S,
    ) -> (T, Option<u64>) {
        if hazard == HazardMode::Ignore {
            self.commit_until(cycle, sink);
            return (self.mem[addr], None);
        }
        let h = self.horizon.max(cycle);
        self.horizon = h;
        match self.ring.newest(addr) {
            Some(p) => (p.value, (p.commit_cycle >= h).then_some(p.commit_cycle)),
            None => (self.mem[addr], None),
        }
    }

    /// Queue a write committing at `commit_cycle`.
    #[inline(always)]
    fn write(&mut self, commit_cycle: u64, addr: usize, value: T) {
        self.ring.push(Pending {
            commit_cycle,
            addr,
            value,
        });
    }

    /// The architectural image: the committed words with every write in
    /// flight applied in commit order — what reading the BRAM back after
    /// a drain would show.
    fn image(&self) -> Vec<T> {
        let mut mem = self.mem.clone();
        for p in self.ring.iter() {
            mem[p.addr] = p.value;
        }
        mem
    }

    /// Stall-free kernel entry at stage-1 cycle `c1`: commit every write
    /// (the image becomes the newest one) and record in `window` the
    /// addresses still visible to the forwarding network, by distance
    /// from `c1` (`[0]` = the previous iteration; an empty slot keeps
    /// [`NO_ADDR`]).
    fn enter_window(&mut self, c1: u64, window: &mut [usize; 3]) {
        while let Some(p) = self.ring.pop_due(u64::MAX) {
            self.mem[p.addr] = p.value;
            debug_assert!(p.commit_cycle <= c1 + 2, "stall-free write bound");
            if p.commit_cycle >= c1 {
                window[(c1 + 2 - p.commit_cycle) as usize] = p.addr;
            }
        }
    }

    /// Stall-free kernel exit before stage-1 cycle `c1`: set the horizon
    /// and queue the window's writes again, so a subsequent
    /// cycle-accurate run observes identical state. Their values are
    /// recovered from the image: if one address appears in two slots the
    /// older write also gets the newest value, which is unobservable —
    /// forwarding and [`image`](Self::image) read the newest writer per
    /// address, and in-order commit makes the newest value land last
    /// regardless.
    fn exit_window(&mut self, window: [usize; 3], c1: u64, horizon: u64) {
        self.horizon = horizon;
        for slot in (0..3).rev() {
            let addr = window[slot];
            if addr != NO_ADDR {
                self.write(c1 + 2 - slot as u64, addr, self.mem[addr]);
            }
        }
    }
}

/// Quantized-storage runtime (DESIGN.md §2.14): the stored-format policy
/// plus the dedicated stochastic-rounding dither LFSR unit
/// (`seed_unit::QUANT`), consumed once per retired sample in retirement
/// order by every executor.
#[derive(Debug, Clone)]
struct QuantRt {
    policy: QuantPolicy,
    rng: Lfsr32,
}

/// Next-state field of a kernel image word (the image requires
/// `|S| ≤ 2^22`).
const IMG_STATE_MASK: u32 = (1 << 22) - 1;
/// Terminal-state flag of a kernel image word.
const IMG_TERMINAL: u32 = 1 << 22;
/// Bit offset of a kernel image word's α·R index.
const IMG_AR_SHIFT: u32 = 24;
/// Distinct α·R values a kernel image can index: one per 8-bit index.
const AR_ENTRIES: usize = 1 << (32 - IMG_AR_SHIFT);

/// Invalid window-register address: no real write can carry it.
const NO_ADDR: usize = usize::MAX;

/// The stall-free kernel's image of the environment: the paper's
/// transition and reward tables (§IV-B) with α folded into the reward,
/// built from one sweep of the environment on the kernel's first call, as
/// the hardware keeps both tables memory-resident. The kernel reads and
/// writes the Q BRAM image itself in place, so nothing here depends on
/// Q and nothing is copied per call.
#[derive(Debug, Clone)]
struct KernelImage<V> {
    /// One word per `(s, a)`, row-major: the next state (bits 0–21), the
    /// terminal flag (bit 22) and an index into `alpha_r` (bits 24–31).
    words: Vec<u32>,
    /// The environment's distinct α·R(s, a) values, each computed once
    /// with the saturating multiply of Eq. (3), on the stored grid in
    /// force; unused entries are zero.
    alpha_r: [V; AR_ENTRIES],
}

impl<V: QValue> KernelImage<V> {
    /// The image of `env` for step size `alpha`, with each reward first
    /// snapped to `grid`, the stored format in force, as the reward ROM
    /// snaps it; `None` when `env` has more distinct α·R values than a
    /// word can index. One sweep, transition first: on a 262,144×8 grid
    /// world that order builds the image ~15% faster than reward first.
    /// Each distinct reward converts once (`RewardMemo`); a refusal stops
    /// the sweep. Out of line and cold: it runs once per image.
    #[cold]
    #[inline(never)]
    fn build<E: Environment>(env: &E, alpha: V, grid: Option<QuantPolicy>) -> Option<Self> {
        let mut alpha_r = [V::zero(); AR_ENTRIES];
        let mut distinct = 0;
        let mut index = RewardMemo::new(|r| {
            let r = V::from_f64(r);
            let ar = alpha.mul(grid.map_or(r, |p| p.round_nearest(r)));
            let i = alpha_r[..distinct]
                .iter()
                .position(|&v| QValue::to_bits(v) == QValue::to_bits(ar))
                .or_else(|| (distinct < AR_ENTRIES).then_some(distinct))?;
            if i == distinct {
                alpha_r[i] = ar;
                distinct += 1;
            }
            Some(i as u32)
        });
        let mut words = Vec::with_capacity(env.num_pairs());
        for s in 0..env.num_states() as State {
            for a in 0..env.num_actions() as Action {
                let t = env.transition(s, a);
                let i = index.get(env.reward(s, a))?;
                let terminal = if env.is_terminal(t) { IMG_TERMINAL } else { 0 };
                words.push(t | terminal | i << IMG_AR_SHIFT);
            }
        }
        drop(index);
        Some(Self { words, alpha_r })
    }
}

/// The stall-free kernel's Q write port: what the stored format does to
/// Eq. (3)'s result before it lands in the Q BRAM. The kernel is written
/// once over this trait and monomorphized per port.
trait WritePort<V> {
    /// The value stored for Eq. (3)'s result `q_new`.
    fn store(&mut self, q_new: V) -> V;
}

/// The full-width stored format's port: the identity.
struct FullWidth;

impl<V> WritePort<V> for FullWidth {
    #[inline(always)]
    fn store(&mut self, q_new: V) -> V {
        q_new
    }
}

/// A quantized stored format's port (DESIGN.md §2.14): the stochastic
/// rounder, one dither draw per retired sample.
impl<V: QValue> WritePort<V> for QuantRt {
    #[inline(always)]
    fn store(&mut self, q_new: V) -> V {
        self.policy.apply(q_new, u64::from(self.rng.next_u32()))
    }
}

/// A policy unit (§V) resolved once per run: the one behaviour/update
/// decision of every QRL engine — the cycle-accurate engine, the
/// stall-free kernel and the dual pipeline — with the ε-greedy
/// comparator threshold hoisted out of the loop. Each LFSR word is drawn
/// exactly as the golden reference draws it (`core::policy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicyUnit {
    Random,
    Greedy,
    Eps(u32),
}

impl PolicyUnit {
    /// The behaviour and update units of `trainer`'s policies, for the
    /// engines that run their configuration's ([`Configured`], the dual
    /// pipeline). Not inlined into engines monomorphized in other
    /// crates: each of their runs calls it once.
    pub(crate) fn resolve(trainer: &TrainerConfig) -> [Self; 2] {
        Self::pair([trainer.behavior, trainer.update])
    }

    /// The behaviour and update units of `policies`, in line, so the
    /// units of a fixture that fixes its policies' kinds are constants
    /// in its engine loops. Boltzmann has no LFSR-only realization and
    /// is refused here, for every engine (the probability-table fixture
    /// realizes it, `WeightRule::Boltzmann`).
    #[inline(always)]
    fn pair([behavior, update]: [Policy; 2]) -> [Self; 2] {
        let unit = |p, role| match p {
            Policy::Random => PolicyUnit::Random,
            Policy::Greedy => PolicyUnit::Greedy,
            Policy::EpsilonGreedy { epsilon } => PolicyUnit::Eps(epsilon_to_q32(epsilon)),
            Policy::Boltzmann { .. } => panic!(
                "Boltzmann {role} policy is not synthesizable on the QRL engine; \
                 use the probability-table engine (qtaccel_accel::prob_engine)"
            ),
        };
        [unit(behavior, "behaviour"), unit(update, "update")]
    }

    /// Whether a selection draws an LFSR word.
    #[inline(always)]
    pub(crate) fn draws(self) -> bool {
        self != PolicyUnit::Greedy
    }

    /// One selection's LFSR draw over `na` actions: `Some(action)` for a
    /// random pick, `None` when the unit takes the greedy (Qmax) branch.
    #[inline(always)]
    pub(crate) fn draw(self, rng: &mut Lfsr32, na: usize) -> Option<Action> {
        match self {
            PolicyUnit::Random => Some(((u64::from(rng.next_u32()) * na as u64) >> 32) as Action),
            PolicyUnit::Greedy => None,
            PolicyUnit::Eps(thr) => {
                let x = rng.next_u32();
                (x < thr).then(|| ((u64::from(x) * na as u64) / u64::from(thr)) as Action)
            }
        }
    }
}

/// The stall-free kernel's forwarding state. With every write landing
/// exactly [`WRITE_OFFSET`] cycles after its iteration's stage 1, the
/// forwarding network reduces to the addresses of the three youngest Q
/// and Qmax writes (`[0]` = the previous iteration, [`NO_ADDR`] = an
/// empty slot).
struct Window {
    q: [usize; 3],
    qmax: [usize; 3],
    /// Forwards counted since kernel entry.
    forwards: u64,
    /// Whether the last iteration's update policy read the Q BRAM
    /// rather than the Qmax array; decides the exit Q-read horizon.
    update_read_q: bool,
}

/// The `(|S|, |A|)` shape of `env`'s tables.
pub(crate) fn shape<E: Environment>(env: &E) -> (usize, usize) {
    (env.num_states(), env.num_actions())
}

/// The LFSR start-state selector (§IV-B): an episode's first state, by
/// rejection over the packed address space. Both engines start every
/// episode here. It fires once per episode, not once per sample, so it
/// is a cold call: inlined, its rejection loop sat in every per-sample
/// loop of both engines and made the kernel 4–8% slower.
#[cold]
#[inline(never)]
fn episode_start<E: Environment>(env: &E, rng: &mut Lfsr32) -> State {
    env.random_start(rng)
}

/// A QRL accelerator instance (§IV): the 4-stage pipeline with one
/// policy [`Fixture`] `A`, which picks the constructors that set the
/// behaviour and update policies and yields them to every engine loop:
///
/// - [`AccelPipeline`] ([`Configured`]): the policies [`AccelConfig`]
///   gives and a caller-chosen seed bank — what
///   [`IndependentPipelines`](crate::IndependentPipelines) builds;
/// - [`QLearningAccel`](crate::QLearningAccel) and
///   [`SarsaAccel`](crate::SarsaAccel): the two §V engines, seed bank 0,
///   whose policy kinds are fixed by the type;
/// - [`BanditAccel`](crate::BanditAccel),
///   [`StatefulBanditAccel`](crate::StatefulBanditAccel) and
///   [`ProbPolicyAccel`](crate::ProbPolicyAccel): the §VII-B
///   customizations, with their extra units (see *§VII-B units*).
///
/// The dual-pipeline configuration (`crate::multi::DualPipelineShared`)
/// runs two datapaths over shared memories with its own arbitration, and
/// shares this module's policy unit, in-flight ring and stage timing.
///
/// Generic over a [`TraceSink`] chosen at compile time. With the default
/// [`NullSink`] every instrumentation site monomorphizes away and the
/// stall-free kernel stays engaged — zero cost when telemetry is off.
/// An instrumented sink maintains the [`CounterBank`] (and, for
/// event-bearing sinks, receives cycle-stamped [`Event`]s). Instrumented
/// pipelines always run the cycle-accurate engine, so
/// [`run_samples_fast`](Self::run_samples_fast) feeds a sink exactly what
/// [`run_samples`](Self::run_samples) does.
#[derive(Debug, Clone)]
pub struct QrlAccel<V, S: TraceSink = NullSink, A: Fixture = Configured> {
    num_states: usize,
    num_actions: usize,
    config: AccelConfig,
    // Which RNG seed bank this pipeline draws from (multi-pipeline
    // configurations stride their units by this index).
    pipeline_index: u64,
    // Stage-1 derived constants.
    alpha_v: V,
    one_minus_alpha: V,
    alpha_gamma: V,
    // Enable-gated LFSR units.
    start_rng: Lfsr32,
    behavior_rng: Lfsr32,
    update_rng: Lfsr32,
    // The Q BRAM and the Qmax array: committed image, in-flight writes
    // and forwarding horizon each.
    q: Bank<V>,
    qmax: Bank<(V, Action)>,
    // The cycle-accurate engine's reward ROM, built on its first step
    // (`build_reward_rom`) and snapped to the stored grid under a quant
    // policy. The stall-free kernel never reads it.
    rewards: Option<RewardTable<V>>,
    // The stall-free kernel's image (see `run_stall_free`), built on the
    // kernel's first call: `Some(None)` records that the kernel refused
    // the environment (more distinct α·R values than a word indexes), so
    // later calls run the cycle-accurate engine without sweeping again.
    // Like the ROM, a derived cache of the environment and the stored
    // format — never checkpointed, dropped whenever the stored format
    // can change.
    image: Option<Option<KernelImage<V>>>,
    // Inter-iteration carry: (state, forwarded on-policy action).
    carry: Option<(State, Option<Action>)>,
    next_c1: u64,
    stats: CycleStats,
    // Telemetry: perf-counter bank (live only when `S::COUNTERS`) and
    // the event sink (fed only when `S::EVENTS`).
    counters: CounterBank,
    sink: S,
    // Fault-tolerance runtime (None = fault-free: every hook compiles
    // to one branch on a pointer-sized option, and the stall-free kernel
    // stays engaged).
    fault: Option<Box<FaultRt>>,
    // Quantized-storage runtime (None = full-width storage: the
    // writeback hook is one branch on the option, and the stall-free
    // kernel's write port is the identity — DESIGN.md §2.14).
    quant: Option<QuantRt>,
    // Lease-fencing epoch (DESIGN.md §2.16): the cluster worker stamps
    // this before each durable save so a checkpoint names the
    // assignment epoch it was written under. 0 outside cluster runs.
    lease_epoch: u64,
    // The policy fixture: it picks the constructors and yields the
    // policy units (`Fixture`).
    algorithm: PhantomData<A>,
    // The fixture's §VII-B units: `()` for the §V fixtures.
    custom: A::Custom,
}

pub(crate) mod sealed {
    use super::*;

    /// Only this crate's fixtures are [`Fixture`](super::Fixture)s. Each
    /// names its §VII-B units: `()` for the §V fixtures, whose
    /// [`Units::get`] is then a constant `None`, so every §VII-B site
    /// folds away in their engine copies. A customization fixture's
    /// consts say which of the units it uses.
    pub trait Sealed {
        /// The units' state: `()`, or [`Custom`].
        type Custom: Units;
        /// The reward unit adds Irwin–Hall noise to R(s, a).
        const NOISE: bool = false;
        /// The transition unit advances the chains by LFSR draws.
        const CHAINS: bool = false;
        /// The selections (behaviour, update) a probability table
        /// serves, when the constructors attached one.
        const ROLES: [bool; 2] = [false; 2];
    }

    /// A fixture's unit state, built on the pipeline's seed bank.
    pub trait Units: Clone + core::fmt::Debug {
        /// The units of seed bank `pipeline_index`.
        fn new(seeds: &SeedSequence, pipeline_index: u64) -> Self;
        /// The units, when this fixture has them.
        fn get(&mut self) -> Option<&mut Custom>;
        /// The units, when this fixture has them.
        fn get_ref(&self) -> Option<&Custom>;
    }

    impl Units for () {
        #[inline(always)]
        fn new(_: &SeedSequence, _: u64) {}

        #[inline(always)]
        fn get(&mut self) -> Option<&mut Custom> {
            None
        }

        #[inline(always)]
        fn get_ref(&self) -> Option<&Custom> {
            None
        }
    }

    /// The §VII-B units of a customization fixture (DESIGN.md §2.5).
    #[derive(Debug, Clone)]
    pub struct Custom {
        /// The reward unit's Irwin–Hall sampler: R(s, a) plus
        /// `reward_std(s, a)` times one sample (bandits).
        pub(crate) noise: NormalLfsr,
        /// The transition unit's chain-advance LFSR (stateful bandits).
        pub(crate) chains: Lfsr32,
        /// The probability-table policy unit (Eq. 4, Eq. 5).
        pub(crate) table: Option<ProbTable>,
    }

    impl Units for Custom {
        fn new(seeds: &SeedSequence, pipeline_index: u64) -> Self {
            let unit = |u| seeds.derive(seed_unit::of(pipeline_index, u));
            Custom {
                noise: NormalLfsr::new(unit(seed_unit::REWARD)),
                chains: Lfsr32::new(unit(seed_unit::CHAINS)),
                table: None,
            }
        }

        fn get(&mut self) -> Option<&mut Custom> {
            Some(self)
        }

        fn get_ref(&self) -> Option<&Custom> {
            Some(self)
        }
    }

    /// What the probability table holds and how stage 4 writes it.
    #[derive(Debug, Clone)]
    pub enum TableRule {
        /// Eq. 4: weights; the write stores the rule's weight of the
        /// fresh Q-value (through the exp ROM for Boltzmann).
        Weight(WeightRule, Option<ExpLut>),
        /// Eq. 5 (EXP3): log-weights; selection mixes in `γ/|A|`, and the
        /// write adds the pull's importance-weighted gain.
        Exp3 {
            /// The mixing coefficient γ.
            gamma: f64,
        },
    }

    /// The probability-table policy unit: the P BRAM as a third bank, so
    /// its reads follow the hazard mode as Q's do.
    #[derive(Debug, Clone)]
    pub struct ProbTable {
        pub(crate) rule: TableRule,
        pub(crate) p: Bank<f64>,
        /// The selected row's words, then its probabilities.
        pub(crate) row: Vec<f64>,
        /// Their running sums, which the search reads.
        sums: Vec<f64>,
        /// Probability of the last drawn action, which EXP3's gain
        /// divides by.
        pub(crate) drawn_p: f64,
    }

    impl ProbTable {
        /// A table over `pairs` words in rows of `na`, uniform at the
        /// start: Eq. 4 from an all-ones P BRAM, EXP3 from all-zero
        /// log-weights.
        pub(crate) fn new(rule: TableRule, pairs: usize, na: usize) -> Self {
            let init = match rule {
                TableRule::Weight(..) => 1.0,
                TableRule::Exp3 { .. } => 0.0,
            };
            ProbTable {
                rule,
                p: Bank::new(MemKind::P, vec![init; pairs]),
                row: vec![0.0; na],
                sums: vec![0.0; na],
                drawn_p: 1.0,
            }
        }

        /// One draw of `rng` from the row the selection read: the row's
        /// probabilities (Eq. 4's weights, or Eq. 5's mixture), then the
        /// binary search over their running sums.
        pub(crate) fn draw(&mut self, rng: &mut Lfsr32) -> Action {
            if let TableRule::Exp3 { gamma } = self.rule {
                exp3_mix(&mut self.row, gamma);
            }
            running_sums(&self.row, &mut self.sums);
            let a = draw_weighted(&self.sums, rng);
            self.drawn_p = self.row[a as usize];
            a
        }
    }
}

pub(crate) use sealed::{Custom, ProbTable, TableRule, Units};

/// Make `fixture` a customization fixture of [`QrlAccel`] with the units
/// its flags name (see [`sealed::Sealed`]), running the policies its
/// constructors write.
macro_rules! customization_fixture {
    ($fixture:ident { noise: $noise:expr, chains: $chains:expr, roles: $roles:expr }) => {
        impl $crate::pipeline::sealed::Sealed for $fixture {
            type Custom = $crate::pipeline::Custom;
            const NOISE: bool = $noise;
            const CHAINS: bool = $chains;
            const ROLES: [bool; 2] = $roles;
        }

        impl $crate::pipeline::Fixture for $fixture {
            fn policies(
                _: &qtaccel_core::trainer::TrainerConfig,
            ) -> Option<[qtaccel_core::policy::Policy; 2]> {
                None
            }
        }
    };
}
pub(crate) use customization_fixture;

/// Stage-2 cycles of one probability-table search over `na` actions:
/// `⌈log₂ na⌉`, at least one.
pub(crate) fn search_cycles(na: usize) -> u64 {
    u64::from((usize::BITS - (na - 1).leading_zeros()).max(1))
}

/// A policy fixture of [`QrlAccel`]: the behaviour and update policies
/// that every engine loop runs, given the trainer configuration the
/// fixture's constructors wrote. A fixture
/// that fixes its policies' kinds returns them whatever the
/// configuration says, so in its engine copy the per-sample policy
/// dispatch folds away at compile time. Sealed: the fixtures are
/// [`Configured`], [`QLearning`](crate::QLearning) and
/// [`Sarsa`](crate::Sarsa), and the §VII-B customizations
/// [`Bandit`](crate::Bandit), [`Stateful`](crate::Stateful) and
/// [`ProbPolicy`](crate::ProbPolicy), which carry extra units.
pub trait Fixture: sealed::Sealed {
    /// The behaviour and update policies this fixture fixes, in that
    /// order; `None` for one that runs whatever its configuration gives.
    fn policies(trainer: &TrainerConfig) -> Option<[Policy; 2]>;
}

/// The policy fixture of [`AccelPipeline`]: behaviour and update
/// policies as [`AccelConfig`] gives them.
#[derive(Debug, Clone, Copy)]
pub struct Configured;

impl sealed::Sealed for Configured {
    type Custom = ();
}

impl Fixture for Configured {
    #[inline(always)]
    fn policies(_: &TrainerConfig) -> Option<[Policy; 2]> {
        None
    }
}

/// The pipeline core with the policies its [`AccelConfig`] gives, on a
/// caller-chosen RNG seed bank.
pub type AccelPipeline<V, S = NullSink> = QrlAccel<V, S, Configured>;

impl<V: QValue> AccelPipeline<V> {
    /// Build a pipeline for `env`'s dimensions. `pipeline_index` selects
    /// the RNG seed bank (0 for single-pipeline configurations — the bank
    /// the software golden reference uses). Telemetry is disabled
    /// ([`NullSink`]); use [`AccelPipeline::with_sink`] to instrument.
    pub fn new<E: Environment>(env: &E, config: AccelConfig, pipeline_index: u64) -> Self {
        Self::build(shape(env), config, pipeline_index, NullSink)
    }
}

impl<V: QValue, S: TraceSink> AccelPipeline<V, S> {
    /// Build an instrumented pipeline: like [`AccelPipeline::new`] but
    /// attaching `sink`, which selects the telemetry level at compile
    /// time (see [`TraceSink`]).
    pub fn with_sink<E: Environment>(
        env: &E,
        config: AccelConfig,
        pipeline_index: u64,
        sink: S,
    ) -> Self {
        Self::build(shape(env), config, pipeline_index, sink)
    }
}

impl<V: QValue, S: TraceSink, A: Fixture> QrlAccel<V, S, A> {
    /// Build an engine for a `(|S|, |A|)` table `shape` with `config`'s
    /// policies, drawing from seed bank `pipeline_index` and feeding
    /// `sink`; each fixture's constructors set their policies and call
    /// this.
    pub(crate) fn build(
        (s, a): (usize, usize),
        config: AccelConfig,
        pipeline_index: u64,
        sink: S,
    ) -> Self {
        let seeds = SeedSequence::new(config.trainer.seed);
        let alpha_v = V::from_f64(config.trainer.alpha);
        let gamma_v = V::from_f64(config.trainer.gamma);
        assert!(s > 0 && a > 0, "environment must be non-empty");
        // Qmax BRAM init file: random greedy-action fields (see
        // QmaxTable::randomize_actions for why this is required).
        let mut qmax_mem = vec![(V::zero(), 0 as Action); s];
        let mut init_rng =
            Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::QMAX_INIT)));
        for e in &mut qmax_mem {
            e.1 = init_rng.below(a as u32);
        }
        let mut counters = CounterBank::new();
        if S::COUNTERS {
            // The pipeline-fill bubbles are a property of the pipe, not
            // of any iteration: account them at construction, matching
            // `CycleStats::fill_bubbles`.
            counters.add(CounterId::FillCycles, FILL);
        }
        let mut sink = sink;
        if S::HEALTH {
            // Size the probe's coverage bitset and denominator now so
            // coverage reads correctly even before the state space is
            // fully explored.
            if let Some(probe) = sink.health_mut() {
                probe.bind_states(s as u64);
            }
        }
        Self {
            num_states: s,
            num_actions: a,
            config,
            pipeline_index,
            alpha_v,
            one_minus_alpha: alpha_v.one_minus(),
            alpha_gamma: alpha_v.mul(gamma_v),
            start_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::START))),
            behavior_rng: Lfsr32::new(
                seeds.derive(seed_unit::of(pipeline_index, seed_unit::BEHAVIOR)),
            ),
            update_rng: Lfsr32::new(seeds.derive(seed_unit::of(pipeline_index, seed_unit::UPDATE))),
            q: Bank::new(MemKind::Q, vec![V::zero(); s * a]),
            qmax: Bank::new(MemKind::Qmax, qmax_mem),
            rewards: None,
            image: None,
            carry: None,
            next_c1: 0,
            stats: CycleStats {
                fill_bubbles: FILL,
                ..CycleStats::default()
            },
            counters,
            sink,
            fault: None,
            quant: None,
            lease_epoch: 0,
            algorithm: PhantomData,
            custom: A::Custom::new(&seeds, pipeline_index),
        }
    }

    /// Switch the pipeline to a quantized stored Q-table format
    /// (DESIGN.md §2.14): Q entries are held on `policy`'s grid, every
    /// writeback is stochastically rounded using the dedicated
    /// `seed_unit::QUANT` dither LFSR, and every reward table is rebuilt
    /// on the same grid on its next use — so the reference trainer, the
    /// cycle-accurate engine and the stall-free kernel compute
    /// bit-identical updates. Must be called before training starts
    /// (mid-run adoption happens only through checkpoint restore).
    pub fn enable_quant(&mut self, policy: QuantPolicy) {
        assert_eq!(self.stats.samples, 0, "enable_quant before training starts");
        policy.validate_for::<V>();
        // Re-encode the (still initial) memory images onto the grid so
        // the on-grid invariant holds from the first sample.
        for v in &mut self.q.mem {
            *v = policy.round_nearest(*v);
        }
        for e in &mut self.qmax.mem {
            e.0 = policy.round_nearest(e.0);
        }
        // Every reward table depends on the stored format: rebuild on
        // next use.
        self.rewards = None;
        self.image = None;
        let seeds = SeedSequence::new(self.config.trainer.seed);
        let rng = Lfsr32::new(seeds.derive(seed_unit::of(self.pipeline_index, seed_unit::QUANT)));
        self.quant = Some(QuantRt { policy, rng });
    }

    /// The quantization policy in force, if any.
    pub fn quant(&self) -> Option<&QuantPolicy> {
        self.quant.as_ref().map(|q| &q.policy)
    }

    /// The configuration in force.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The perf-counter bank. All-zero when `S::COUNTERS` is false
    /// (except that nothing is ever accumulated, so reads are valid
    /// regardless).
    pub fn counters(&self) -> &CounterBank {
        &self.counters
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The sink's health probe, when one is attached (`None` for every
    /// sink that doesn't opt into `HEALTH` — the default).
    pub fn health_probe(&self) -> Option<&qtaccel_telemetry::HealthProbe> {
        self.sink.health()
    }

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consume the pipeline and return its sink (e.g. to recover a
    /// captured event buffer).
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Cycle statistics so far.
    pub fn stats(&self) -> CycleStats {
        self.stats
    }

    /// Number of states the tables are sized for.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions the tables are sized for.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    // ---- memory model -------------------------------------------------

    /// Read Q(s, a) as issued at `cycle` under hazard mode `hz`. Returns
    /// the operand value and the stall delay this read imposes (nonzero
    /// only in stall-only mode).
    #[inline(always)]
    fn read_q(&mut self, hz: HazardMode, s: State, a: Action, cycle: u64) -> (V, u64) {
        let idx = sa_index(s, a, self.num_actions);
        if S::COUNTERS {
            self.counters.inc(CounterId::QReads);
        }
        let (v, live) = self.q.read(idx, cycle, hz, &mut self.sink);
        (v, self.hazard(hz, MemKind::Q, idx, cycle, live))
    }

    /// Read the Qmax entry for `s` as issued at `cycle` under `hz`.
    #[inline(always)]
    fn read_qmax(&mut self, hz: HazardMode, s: State, cycle: u64) -> ((V, Action), u64) {
        let idx = s as usize;
        if S::COUNTERS {
            self.counters.inc(CounterId::QmaxReads);
        }
        let (v, live) = self.qmax.read(idx, cycle, hz, &mut self.sink);
        (v, self.hazard(hz, MemKind::Qmax, idx, cycle, live))
    }

    /// The forwarding network's accounting under `hz` for one read of
    /// `mem` at `addr`, issued at `cycle`, whose newest writer is still
    /// in flight until `live` (see `Bank::read`): forwards and misses,
    /// their events, and the stall the read imposes, which is returned
    /// (nonzero only in stall-only mode).
    #[inline(always)]
    fn hazard(
        &mut self,
        hz: HazardMode,
        mem: MemKind,
        addr: usize,
        cycle: u64,
        live: Option<u64>,
    ) -> u64 {
        let addr = addr as u64;
        match (hz, live) {
            (HazardMode::Forwarding, Some(_)) => {
                self.stats.forwards += 1;
                if S::COUNTERS {
                    match mem {
                        MemKind::Q => self.counters.inc(CounterId::FwdQHit),
                        MemKind::Qmax => self.counters.inc(CounterId::FwdQmaxHit),
                        // The bank has no P-port counter: P forwards show
                        // in `CycleStats::forwards` and the events.
                        MemKind::P => {}
                    }
                }
                if S::EVENTS {
                    self.sink.record(&Event::Hazard { cycle, mem, addr });
                    self.sink.record(&Event::Forward { cycle, mem, addr });
                }
                0
            }
            (HazardMode::Forwarding, None) => {
                if S::COUNTERS {
                    self.counters.inc(CounterId::FwdMiss);
                }
                0
            }
            // Hold the front end until the write commits, then the read
            // returns the fresh value.
            (HazardMode::StallOnly, Some(commit_cycle)) => {
                let d = commit_cycle + 1 - cycle;
                if S::EVENTS {
                    self.sink.record(&Event::Hazard { cycle, mem, addr });
                    self.sink.record(&Event::StallBegin { cycle, mem, addr });
                    self.sink.record(&Event::StallEnd { cycle: cycle + d });
                }
                d
            }
            _ => 0,
        }
    }

    /// Row-maximum read per the configured [`MaxMode`]: a single Qmax
    /// access (0 extra cycles) or the unoptimized |A|-read row scan
    /// (|A|−1 extra stage-2 cycles — the design point §V-A eliminates;
    /// quantified by the `ablation_qmax` experiment).
    #[inline(always)]
    fn read_max(&mut self, hz: HazardMode, s: State, cycle: u64) -> (V, Action, u64) {
        match self.config.trainer.max_mode {
            MaxMode::QmaxArray => {
                let ((v, a), d) = self.read_qmax(hz, s, cycle);
                (v, a, d)
            }
            MaxMode::ExactScan => self.scan_row(hz, s, cycle),
        }
    }

    /// The |A|-read row scan of [`MaxMode::ExactScan`], issued from
    /// `cycle`: the row's first maximum, its action and the stall delay.
    /// Out of line, as the design point §V-A removes: inlined, its loop
    /// sat in every hazard mode's per-sample loop, Qmax-array runs
    /// included, and the cycle engine ran ~3% slower.
    #[inline(never)]
    fn scan_row(&mut self, hz: HazardMode, s: State, cycle: u64) -> (V, Action, u64) {
        let mut delay = 0u64;
        let (mut best_v, mut best_a) = {
            let (v, d) = self.read_q(hz, s, 0, cycle);
            delay = delay.max(d);
            (v, 0u32)
        };
        for a in 1..self.num_actions as Action {
            let (v, d) = self.read_q(hz, s, a, cycle + a as u64);
            delay = delay.max(d);
            if v.vcmp(best_v) == core::cmp::Ordering::Greater {
                best_v = v;
                best_a = a;
            }
        }
        // The scan occupies stage 2 for |A| cycles instead of 1.
        (best_v, best_a, delay + self.num_actions as u64 - 1)
    }

    /// Stage-4 Qmax read-modify-write. Returns `(wrote, flip)`: whether
    /// the comparator improved the entry, and whether that write changed
    /// the stored greedy action — the health layer's policy-churn signal
    /// (`flip` is only computed under `S::HEALTH` and is `false`
    /// otherwise).
    #[inline(always)]
    fn qmax_writeback(
        &mut self,
        hz: HazardMode,
        s: State,
        a: Action,
        v: V,
        cycle: u64,
    ) -> (bool, bool) {
        let idx = s as usize;
        if S::COUNTERS {
            // The RMW's read half always accesses the Qmax port.
            self.counters.inc(CounterId::QmaxReads);
        }
        // The comparator's view of the current maximum: through the
        // forwarding network normally, the stale BRAM word in Ignore mode.
        // The controller services the RMW at the write cycle, retiring
        // everything due before it, so the read raises the horizon past
        // the next iteration's reads; a hazard it finds imposes nothing.
        let ((current, current_a), _) = self.qmax.read(idx, cycle, hz, &mut self.sink);
        if v.vcmp(current) == core::cmp::Ordering::Greater {
            if S::COUNTERS {
                self.counters.inc(CounterId::QmaxWrites);
            }
            self.qmax.write(cycle, idx, (v, a));
            (true, S::HEALTH && a != current_a)
        } else {
            (false, false)
        }
    }

    /// Feed one retired sample to the sink's health probe (no-op unless
    /// `S::HEALTH`; call sites are additionally gated on the const so the
    /// `NullSink` build monomorphizes this away entirely). The
    /// cycle-accurate engine calls this once per retired sample, in
    /// retirement order; the probe strides internally, and a probed
    /// pipeline never runs the stall-free kernel, so its state is
    /// bit-exact across entry points at any stride.
    #[inline]
    fn health_tick(
        &mut self,
        write_cycle: u64,
        s: State,
        q_sa: V,
        q_new: V,
        qmax_wrote: bool,
        greedy_flip: bool,
    ) {
        if let Some(probe) = self.sink.health_mut() {
            // With a quantized table the *stored* format's rails are the
            // saturation boundary, not the working format's: feed the
            // probe stored codes at the stored width so rail-proximity
            // counters fire on (say) a 4-bit table long before the
            // 16-bit rails are near. Both values are on the stored grid
            // here (q_sa was read from the table, q_new was quantized
            // before this hook), so the zero-dither encode is exact. TD
            // magnitudes are then measured in stored-grid steps.
            let (qa, qb, bits) = match &self.quant {
                Some(qr) => (
                    qr.policy.quantize(q_sa, 0),
                    qr.policy.quantize(q_new, 0),
                    qr.policy.stored_bits(),
                ),
                None => (V::to_bits(q_sa), V::to_bits(q_new), V::storage_bits()),
            };
            probe.observe_sample(write_cycle, s as u64, qa, qb, bits, qmax_wrote, greedy_flip);
        }
    }

    /// Stochastically round a freshly computed Q-value onto the stored
    /// grid (identity when quantization is off). One dither draw per
    /// retired sample, consumed in retirement order — the property that
    /// keeps every executor on the same RNG stream.
    #[inline(always)]
    fn quantize_writeback(&mut self, q_new: V) -> V {
        match &mut self.quant {
            Some(qr) => qr.store(q_new),
            None => q_new,
        }
    }

    // ---- policy units --------------------------------------------------

    /// The behaviour and update units, resolved once per run: in line
    /// from the fixture's policies, or by a call from the configuration's.
    #[inline(always)]
    fn units(&self) -> [PolicyUnit; 2] {
        match A::policies(&self.config.trainer) {
            Some(policies) => PolicyUnit::pair(policies),
            None => PolicyUnit::resolve(&self.config.trainer),
        }
    }

    /// Stage-1 behaviour action selection through `unit`; returns the
    /// action and any stall delay from the Qmax read of a greedy
    /// component.
    #[inline(always)]
    fn behavior_select(
        &mut self,
        hz: HazardMode,
        unit: PolicyUnit,
        s: State,
        cycle: u64,
    ) -> (Action, u64) {
        if S::COUNTERS && unit.draws() {
            self.counters.inc(CounterId::LfsrDraws);
        }
        if self.table_role(0) {
            return self.table_select(hz, 0, s, cycle);
        }
        match unit.draw(&mut self.behavior_rng, self.num_actions) {
            Some(a) => (a, 0),
            None => {
                let (_, a, d) = self.read_max(hz, s, cycle);
                (a, d)
            }
        }
    }

    /// Stage-2 update selection through `unit`: the next action *and*
    /// the Q-value operand for the Eq. (3) multiply.
    #[inline(always)]
    fn update_select(
        &mut self,
        hz: HazardMode,
        unit: PolicyUnit,
        s_next: State,
        cycle: u64,
    ) -> (Action, V, u64) {
        if S::COUNTERS && unit.draws() {
            self.counters.inc(CounterId::LfsrDraws);
        }
        if self.table_role(1) {
            let (a, d) = self.table_select(hz, 1, s_next, cycle);
            let (v, dq) = self.read_q(hz, s_next, a, cycle + d);
            return (a, v, d + dq);
        }
        match unit.draw(&mut self.update_rng, self.num_actions) {
            Some(a) => {
                let (v, d) = self.read_q(hz, s_next, a, cycle);
                (a, v, d)
            }
            None => {
                let (v, a, d) = self.read_max(hz, s_next, cycle);
                (a, v, d)
            }
        }
    }

    // ---- §VII-B units ---------------------------------------------------

    /// Whether selection `role` (0 behaviour, 1 update) draws from the
    /// probability table; a constant `false` for the §V fixtures.
    #[inline(always)]
    fn table_role(&self, role: usize) -> bool {
        A::ROLES[role] && self.custom().is_some_and(|c| c.table.is_some())
    }

    /// A selection from the probability table for `s`, issued at `cycle`
    /// by selection `role`'s LFSR: one read of the row's |A| words
    /// through the P bank, each with the hazard mode's accounting, then
    /// one word's draw ([`ProbTable::draw`]), which holds the stage for
    /// `⌈log₂|A|⌉` cycles instead of one. Returns the action and the
    /// stall delay.
    #[inline(never)]
    fn table_select(&mut self, hz: HazardMode, role: usize, s: State, cycle: u64) -> (Action, u64) {
        let (na, base) = (self.num_actions, s as usize * self.num_actions);
        let mut delay = 0;
        for addr in base..base + na {
            if let Some(t) = self.custom.get().and_then(|c| c.table.as_mut()) {
                let (w, live) = t.p.read(addr, cycle, hz, &mut self.sink);
                t.row[addr - base] = w;
                delay = delay.max(self.hazard(hz, MemKind::P, addr, cycle, live));
            }
        }
        let rng = if role == 0 {
            &mut self.behavior_rng
        } else {
            &mut self.update_rng
        };
        let table = self.custom.get().and_then(|c| c.table.as_mut());
        let a = table.map_or(0, |t| t.draw(rng));
        (a, delay + search_cycles(na) - 1)
    }

    /// The probability table's stage-4 write of (s, a) at `cycle`: the
    /// weight of the fresh Q-value `q_new` (Eq. 4), or the log-weight
    /// read-modify-written with reward `r`'s gain (Eq. 5), its read
    /// serviced at the write cycle as the Qmax unit's is.
    #[inline(never)]
    fn table_write(&mut self, hz: HazardMode, s: State, a: Action, q_new: V, r: V, cycle: u64) {
        let (na, idx) = (self.num_actions, sa_index(s, a, self.num_actions));
        let Some(t) = self.custom.get().and_then(|c| c.table.as_mut()) else {
            return;
        };
        let w = match &t.rule {
            TableRule::Weight(rule, lut) => rule.weight(q_new.to_f64(), lut.as_ref()),
            TableRule::Exp3 { gamma } => {
                let (l, _) = t.p.read(idx, cycle, hz, &mut self.sink);
                l + exp3_gain(*gamma, na, r.to_f64(), t.drawn_p)
            }
        };
        t.p.write(cycle, idx, w);
    }

    /// Give the fixture's units a probability table with `rule`, which
    /// serves the selections the fixture's `ROLES` marks. The
    /// probability-table fixtures' constructors call this.
    pub(crate) fn attach_table(&mut self, rule: TableRule) {
        let (pairs, na) = (self.num_states * self.num_actions, self.num_actions);
        if let Some(c) = self.custom.get() {
            c.table = Some(ProbTable::new(rule, pairs, na));
        }
    }

    /// The fixture's §VII-B units, if it has any.
    pub(crate) fn custom(&self) -> Option<&Custom> {
        self.custom.get_ref()
    }

    /// Row `s` of the probability table as reading the P BRAM back
    /// after a drain would show it.
    pub(crate) fn table_row(&self, s: State) -> Option<Vec<f64>> {
        let image = self.custom()?.table.as_ref()?.p.image();
        Some(image[s as usize * self.num_actions..][..self.num_actions].to_vec())
    }

    // ---- execution ------------------------------------------------------

    /// Push one iteration down the pipe: one retired sample. Returns the
    /// transition for tracing.
    #[inline(always)]
    pub fn step<E: Environment>(&mut self, env: &E) -> Transition<V> {
        let units = self.units();
        let rom = self.take_reward_rom(env);
        let t = self.step_with(env, &rom, units, self.config.hazard);
        self.rewards = Some(rom);
        t
    }

    /// [`step`](Self::step) reading R(Sₜ,Aₜ) from `rom`, which the caller
    /// holds out of `self` so a run keeps it in registers, selecting
    /// through the resolved behaviour and update units, and reading
    /// under hazard mode `hz`.
    #[inline(always)]
    fn step_with<E: Environment>(
        &mut self,
        env: &E,
        rom: &RewardTable<V>,
        [behavior, update]: [PolicyUnit; 2],
        hz: HazardMode,
    ) -> Transition<V> {
        debug_assert_eq!(env.num_states(), self.num_states, "environment mismatch");
        debug_assert_eq!(env.num_actions(), self.num_actions, "environment mismatch");
        let c1 = self.next_c1;

        // Per-step commit point: retire every write due before this
        // step's stage 1. Reads further into the step resolve any write
        // committing mid-step against the bank's horizon (`Bank::read`),
        // so this is the only drain the common path performs.
        self.q.commit_until(c1, &mut self.sink);
        self.qmax.commit_until(c1, &mut self.sink);
        if let Some(t) = self.custom.get().and_then(|c| c.table.as_mut()) {
            t.p.commit_until(c1, &mut self.sink);
        }

        // Stage 1: state + behaviour action + transition + reads.
        let (s, a, d1) = match self.carry.take() {
            None => {
                if S::COUNTERS {
                    // One draw per reset call (rejection re-draws inside
                    // `random_start` stay internal to the unit).
                    self.counters.inc(CounterId::LfsrDraws);
                }
                let s = episode_start(env, &mut self.start_rng);
                let (a, d) = self.behavior_select(hz, behavior, s, c1);
                (s, a, d)
            }
            Some((s, Some(a))) => (s, a, 0), // forwarded on-policy action
            Some((s, None)) => {
                let (a, d) = self.behavior_select(hz, behavior, s, c1);
                (s, a, d)
            }
        };
        let (s_next, r) = match self.custom.get() {
            None => (env.transition(s, a), rom.get(s, a)),
            Some(c) => {
                let s_next = if A::CHAINS {
                    env.draw_transition(s, a, &mut c.chains)
                } else {
                    env.transition(s, a)
                };
                let mut r = rom.get(s, a);
                if A::NOISE {
                    r = r.add(V::from_f64(
                        env.reward_std(s, a) * c.noise.sample_standard(),
                    ));
                }
                (s_next, r)
            }
        };
        let (q_sa, dq) = self.read_q(hz, s, a, c1 + d1);
        let d1 = d1 + dq;

        // Stage 2 (cycle c1 + d1 + 1): next action + its Q operand.
        let c2 = c1 + d1 + 1;
        let (a_next, q_next, d2) = self.update_select(hz, update, s_next, c2);

        // Stage 3: Eq. (3), then the quantizer on the writeback path.
        let q_new = self
            .one_minus_alpha
            .mul(q_sa)
            .add(self.alpha_v.mul(r))
            .add(self.alpha_gamma.mul(q_next));
        let q_new = self.quantize_writeback(q_new);

        // Stage 4 (cycle c1 + stalls + 3): writeback.
        let stalls = d1 + d2;
        let write_cycle = c1 + stalls + WRITE_OFFSET;
        self.q
            .write(write_cycle, sa_index(s, a, self.num_actions), q_new);
        if S::COUNTERS {
            self.counters.inc(CounterId::QWrites);
        }
        let (qmax_wrote, greedy_flip) = self.qmax_writeback(hz, s, a, q_new, write_cycle);
        if self.custom().is_some() {
            self.table_write(hz, s, a, q_new, r, write_cycle);
        }
        if S::HEALTH {
            self.health_tick(write_cycle, s, q_sa, q_new, qmax_wrote, greedy_flip);
        }

        let iteration = self.stats.samples;
        self.stats.samples += 1;
        self.stats.stalls += stalls;
        self.stats.cycles = write_cycle + 1;
        self.next_c1 = c1 + stalls + 1;
        if S::COUNTERS {
            self.counters.inc(CounterId::SamplesRetired);
            // Stall cycles attributed to the stage whose read imposed
            // them; the two counters sum to `CycleStats::stalls`.
            self.counters.add(CounterId::StallStage1, d1);
            self.counters.add(CounterId::StallStage2, d2);
        }
        if S::EVENTS {
            // Stage occupancy (what `export::waveform` draws): stage 1 at
            // issue, stages 2–4 compressed behind the stalls.
            self.sink.record(&Event::Stage {
                cycle: c1,
                stage: 1,
                iteration,
            });
            for k in 1..=3u64 {
                self.sink.record(&Event::Stage {
                    cycle: c1 + stalls + k,
                    stage: (k + 1) as u8,
                    iteration,
                });
            }
        }

        self.carry = if env.is_terminal(s_next) {
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

        self.fault_tick();

        Transition {
            s,
            a,
            r,
            s_next,
            a_next,
            q_new,
        }
    }

    /// Move the reward ROM out of `self`, building it from `env` when
    /// this is the cycle-accurate engine's first step since
    /// construction, `enable_quant` or a restore. The caller puts it
    /// back; a panic in between only drops it, to be rebuilt.
    #[inline(always)]
    fn take_reward_rom<E: Environment>(&mut self, env: &E) -> RewardTable<V> {
        match self.rewards.take() {
            Some(rom) => rom,
            None => self.build_reward_rom(env),
        }
    }

    /// The reward ROM for `env` on the grid of the stored format in
    /// force. Out of line and cold: it runs once per table.
    #[cold]
    #[inline(never)]
    fn build_reward_rom<E: Environment>(&self, env: &E) -> RewardTable<V> {
        match &self.quant {
            Some(qr) => {
                let policy = qr.policy;
                RewardTable::from_env_with(env, |v| policy.round_nearest(v))
            }
            None => RewardTable::from_env(env),
        }
    }

    /// Run `n` iterations. [`step`](Self::step) and every per-sample
    /// helper on its path (reads, selectors, transition, writeback,
    /// commit) are `#[inline(always)]`, so this compiles to one loop per
    /// hazard mode, each with its read path specialised; the episode-start
    /// selector, the `ExactScan` row scan and the active fault hook are
    /// calls. The policy units (the fixture's, see [`Fixture`]) and the
    /// hazard mode are resolved and the reward ROM is held out of `self`
    /// once for the run.
    ///
    /// Never inlined: each fixture instantiates its own engine, so a
    /// program that runs one fixture only through
    /// [`run_samples_fast`](Self::run_samples_fast) would otherwise get
    /// these loops inlined beside the stall-free kernel, which made the
    /// kernel ~3% slower on a 4096×8 Q-learning image.
    #[inline(never)]
    pub fn run_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        if n > 0 {
            let units = self.units();
            let rom = self.take_reward_rom(env);
            // Each arm passes its mode as a constant: re-testing the mode
            // per read cost the Forwarding loop ~6% of its time.
            match self.config.hazard {
                HazardMode::Forwarding => {
                    for _ in 0..n {
                        self.step_with(env, &rom, units, HazardMode::Forwarding);
                    }
                }
                HazardMode::StallOnly => {
                    for _ in 0..n {
                        self.step_with(env, &rom, units, HazardMode::StallOnly);
                    }
                }
                HazardMode::Ignore => {
                    for _ in 0..n {
                        self.step_with(env, &rom, units, HazardMode::Ignore);
                    }
                }
            }
            self.rewards = Some(rom);
        }
        self.stats
    }

    // ---- fast path ------------------------------------------------------

    /// Run `n` iterations through the fast path, bit-identical to
    /// [`run_samples`](Self::run_samples).
    ///
    /// One dispatch rule picks the executor: when `stall_free_eligible`
    /// holds and the kernel's image indexes the environment, the
    /// stall-free kernel runs (`run_stall_free`); otherwise this *is*
    /// `run_samples`, the cycle-accurate engine, so a configuration the
    /// kernel refuses gets the reference's tables, counters, events,
    /// health probe and fault campaign by construction. The first
    /// eligible call builds the image; a refused image is recorded, so
    /// later calls do not sweep the environment again.
    ///
    /// The kernel's entry/exit protocol converts between the engine's
    /// in-flight rings and its forwarding window, so the two executors
    /// interleave freely on one pipeline: final Q-table, Qmax table and
    /// [`CycleStats`] are bit-identical to `run_samples` (enforced by the
    /// `fast_path` equivalence tests). One observable caveat: when the
    /// kernel returns, the raw *committed* BRAM image already holds the
    /// writes still in flight (up to the pipeline depth), which only code
    /// reading committed words directly can see — checkpoint bytes, or
    /// [`inject_q_bit_flip`](Self::inject_q_bit_flip) racing an in-flight
    /// write.
    pub fn run_samples_fast<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        if n > 0 && self.stall_free_eligible() {
            let image = match self.image.take() {
                Some(image) => image,
                None => {
                    KernelImage::build(env, self.alpha_v, self.quant.as_ref().map(|q| q.policy))
                }
            };
            let stats = image
                .as_ref()
                .map(|image| self.run_stall_free(env, n, image));
            self.image = Some(image);
            if let Some(stats) = stats {
                return stats;
            }
        }
        self.run_samples(env, n)
    }

    /// Run `n` Q-value updates on the cycle-accurate engine: the §V
    /// engines' name for [`run_samples`](Self::run_samples).
    pub fn train_samples<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        self.run_samples(env, n)
    }

    /// Run `n` Q-value updates through the fast path: the §V engines'
    /// name for [`run_samples_fast`](Self::run_samples_fast).
    pub fn train_samples_fast<E: Environment>(&mut self, env: &E, n: u64) -> CycleStats {
        self.run_samples_fast(env, n)
    }

    /// Whether the stall-free kernel accepts this pipeline: no counters,
    /// events, health probe or fault runtime (the kernel elides
    /// per-access bookkeeping by design), `Forwarding` hazards with the
    /// Qmax array (the configuration that never stalls), and a table
    /// whose image words can name every next state, `|S| ≤ 2^22`, in any
    /// stored format. Every other configuration runs the cycle-accurate
    /// engine, as does an environment whose image the kernel refuses
    /// (see [`run_samples_fast`](Self::run_samples_fast)).
    fn stall_free_eligible(&self) -> bool {
        self.custom().is_none()
            && !S::COUNTERS
            && !S::EVENTS
            && !S::HEALTH
            && self.fault.is_none()
            && self.config.hazard == HazardMode::Forwarding
            && self.config.trainer.max_mode == MaxMode::QmaxArray
            && self.num_states <= IMG_STATE_MASK as usize + 1
    }

    /// The stall-free kernel: the fast executor for `Forwarding` hazards
    /// with the Qmax array, over `image` ([`KernelImage`]) and the Q BRAM
    /// image in place, writing back through the stored format's port
    /// ([`WritePort`]).
    ///
    /// In that configuration every read delay is zero, so stage 1 issues
    /// at consecutive cycles and every write lands exactly
    /// [`WRITE_OFFSET`] cycles after its iteration's stage 1. The
    /// drain-horizon visibility tests then collapse to *fixed sample
    /// distances*:
    ///
    /// - a stage-1 Q read (cycle `c1`, horizon ≤ `c1`) forwards iff its
    ///   address was written by one of the previous **3** iterations;
    /// - a stage-2 Q read (cycle `c1 + 1`) forwards iff its address was
    ///   written by one of the previous **2** iterations;
    /// - a Qmax read (horizon pinned to the previous iteration's RMW at
    ///   `c1 + 2`) forwards iff the previous iteration *improved* that
    ///   entry.
    ///
    /// So the whole forwarding network reduces to three address
    /// registers rotated once per sample ([`Window`]) — no ring scans, no
    /// cycle arithmetic in the loop. The image replaces the per-sample
    /// transition call and the α·R multiply with one word and one table
    /// read, and the ε-greedy comparator thresholds are hoisted out of
    /// the loop; the RNG draw order (behaviour → update → dither, per
    /// retired sample) is unchanged, so results stay bit-identical (the
    /// `fast_path` and `quant` equivalence suites run this kernel
    /// wherever the config matches).
    fn run_stall_free<E: Environment>(
        &mut self,
        env: &E,
        n: u64,
        image: &KernelImage<V>,
    ) -> CycleStats {
        debug_assert!(n > 0);
        debug_assert_eq!(env.num_states(), self.num_states, "environment mismatch");
        debug_assert_eq!(env.num_actions(), self.num_actions, "environment mismatch");
        let units = self.units();
        let entry_c1 = self.next_c1;

        // Entry: commit every pending write (memory = newest image) and
        // load the window registers from the writes still visible to the
        // forwarding network. Only *addresses* are tracked in the
        // windows: every read is served by the immediately-committed
        // tables, and every consumer of the reconstructed in-flight rings
        // (forwarding lookup, in-order commit, `q_table`) observes the
        // newest write per address — so the exit protocol can recover
        // each window value from the committed image instead of rotating
        // values through the loop.
        let mut win = Window {
            q: [NO_ADDR; 3],
            qmax: [NO_ADDR; 3],
            forwards: 0,
            update_read_q: false,
        };
        // Filled in place: building the window from returned arrays left
        // the kernel loop with more register spills, ~4% slower on a
        // 4096×8 Q-learning image.
        self.q.enter_window(entry_c1, &mut win.q);
        self.qmax.enter_window(entry_c1, &mut win.qmax);

        // The stored format picks the write port.
        let win = match self.quant.take() {
            None => self.stall_free_loop(env, n, units, image, &mut FullWidth, win),
            Some(mut quant) => {
                // On-grid invariant: with quantization active every
                // committed Q word sits on the stored grid (writes are
                // quantized, SEU strikes flip code-domain bits), so the
                // kernel reads it in place, and the write port is the
                // only quantizer on the dependency chain.
                debug_assert!(
                    self.q
                        .mem
                        .iter()
                        .all(|&q| quant.policy.try_code(q).is_some()),
                    "quantized Q image is on-grid"
                );
                let win = self.stall_free_loop(env, n, units, image, &mut quant, win);
                self.quant = Some(quant);
                win
            }
        };

        // Exit: closed-form cycle accounting and in-flight ring
        // reconstruction, so a subsequent cycle-accurate run observes
        // identical state.
        let end_c1 = entry_c1 + n;
        self.next_c1 = end_c1;
        self.stats.samples += n;
        self.stats.forwards += win.forwards;
        self.stats.cycles = end_c1 - 1 + WRITE_OFFSET + 1;
        self.q
            .exit_window(win.q, end_c1, end_c1 - 1 + u64::from(win.update_read_q));
        self.qmax
            .exit_window(win.qmax, end_c1, end_c1 - 1 + WRITE_OFFSET);
        self.stats
    }

    /// The stall-free kernel's loop: `n` samples over `image` and the Q
    /// BRAM image, writing back through `port`, starting from the
    /// forwarding window `win`; returns the window at exit.
    fn stall_free_loop<E: Environment, P: WritePort<V>>(
        &mut self,
        env: &E,
        n: u64,
        [behavior, update]: [PolicyUnit; 2],
        image: &KernelImage<V>,
        port: &mut P,
        mut win: Window,
    ) -> Window {
        let na = self.num_actions;
        let forward_action = self.config.trainer.forward_next_action;
        let (one_minus_alpha, alpha_gamma) = (self.one_minus_alpha, self.alpha_gamma);
        let (words, alpha_r) = (&image.words[..], &image.alpha_r);
        let mut carry = self.carry.take();
        // Sliced to the image's length once, so a Q read at an address
        // the image word read has bounds-checked needs no check of its own.
        let q = &mut self.q.mem[..words.len()];
        let qmax = &mut self.qmax.mem[..];
        // The policy LFSRs run in locals, so the loop can keep them in
        // registers; stored back at exit.
        let mut behavior_rng = self.behavior_rng.clone();
        let mut update_rng = self.update_rng.clone();

        for _ in 0..n {
            // Stage 1: state + behaviour action.
            let (s, carried_a) = match carry.take() {
                None => (episode_start(env, &mut self.start_rng), None),
                Some((s, a)) => (s, a),
            };
            let a = match carried_a.or_else(|| behavior.draw(&mut behavior_rng, na)) {
                Some(a) => a,
                None => {
                    win.forwards += u64::from(win.qmax[0] == s as usize);
                    qmax[s as usize].1
                }
            };
            let qaddr = s as usize * na + a as usize;
            let w = words[qaddr];
            let (s_next, terminal) = (w & IMG_STATE_MASK, w & IMG_TERMINAL != 0);
            let q_sa = q[qaddr];
            win.forwards += u64::from(qaddr == win.q[0] || qaddr == win.q[1] || qaddr == win.q[2]);

            // Stage 2: update selection one cycle later, so only the two
            // youngest Q writes are still in flight.
            let drawn = update.draw(&mut update_rng, na);
            win.update_read_q = drawn.is_some();
            let (a_next, q_next) = match drawn {
                Some(an) => {
                    let addr = sa_index(s_next, an, na);
                    win.forwards += u64::from(addr == win.q[0] || addr == win.q[1]);
                    (an, q[addr])
                }
                None => {
                    win.forwards += u64::from(win.qmax[0] == s_next as usize);
                    let (v, an) = qmax[s_next as usize];
                    (an, v)
                }
            };

            // Stage 3: Eq. (3) with the folded α·R, then the write port.
            let q_new = port.store(
                one_minus_alpha
                    .mul(q_sa)
                    .add(alpha_r[(w >> IMG_AR_SHIFT) as usize])
                    .add(alpha_gamma.mul(q_next)),
            );
            q[qaddr] = q_new;

            // Stage 4: Qmax RMW, then age the address windows.
            let improved = q_new.vcmp(qmax[s as usize].0) == core::cmp::Ordering::Greater;
            if improved {
                qmax[s as usize] = (q_new, a);
            }
            win.q = [qaddr, win.q[0], win.q[1]];
            win.qmax = [
                if improved { s as usize } else { NO_ADDR },
                win.qmax[0],
                win.qmax[1],
            ];

            carry = if terminal {
                None
            } else {
                Some((s_next, if forward_action { Some(a_next) } else { None }))
            };
        }

        self.carry = carry;
        self.behavior_rng = behavior_rng;
        self.update_rng = update_rng;
        win
    }

    /// Inject a single-event upset: flip `bit` of the *committed* Q BRAM
    /// word for (s, a). Models a radiation-induced soft error in the
    /// on-chip memory (in-flight pipeline values are unaffected, exactly
    /// as a BRAM cell flip would behave). Used by the `seu_robustness`
    /// experiment.
    pub fn inject_q_bit_flip(&mut self, s: State, a: Action, bit: u32) {
        let idx = sa_index(s, a, self.num_actions);
        // Under a quantized table the physical cell is `stored_bits`
        // wide: fold the requested bit into the code domain so the
        // struck word stays representable on the stored grid.
        let bit = match &self.quant {
            Some(qr) => (bit % qr.policy.stored_bits()) + qr.policy.shift(),
            None => bit,
        };
        self.q.mem[idx] = self.q.mem[idx].flip_bit(bit);
    }

    /// Extract the architectural Q-table (committed image plus in-flight
    /// writes, applied in order — what reading back the BRAM after
    /// drain would show).
    pub fn q_table(&self) -> QTable<V> {
        let mut q = QTable::new(self.num_states, self.num_actions);
        let mem = self.q.image();
        for s in 0..self.num_states as State {
            for a in 0..self.num_actions as Action {
                q.set(s, a, mem[sa_index(s, a, self.num_actions)]);
            }
        }
        q
    }

    /// Extract the architectural Qmax array.
    pub fn qmax_table(&self) -> QmaxTable<V> {
        let mut t = QmaxTable::new(self.num_states);
        for (s, (v, a)) in self.qmax.image().iter().enumerate() {
            t.poke(s as State, *v, *a);
        }
        t
    }

    /// Exact greedy policy from the architectural Q-table.
    pub fn greedy_policy(&self) -> Vec<Action> {
        self.q_table().greedy_policy()
    }

    // ---- fault-tolerance runtime ---------------------------------------

    /// Attach (or replace) the fault-tolerance runtime: online SEU
    /// injection against the Q/Qmax memories, the SECDED protection
    /// model, and the background Qmax scrubbing engine (see
    /// [`FaultConfig`] and the `crate::fault` module docs).
    ///
    /// With a runtime attached the stall-free kernel is ineligible, so
    /// both entry points run the cycle-accurate engine and its
    /// per-retired-sample fault hook; without one, every execution path
    /// is bit-identical to a build without this feature.
    /// Replacing the runtime resets its counters and injector streams.
    pub fn enable_faults(&mut self, config: FaultConfig) {
        self.fault = Some(Box::new(FaultRt::new(config)));
    }

    /// Detach the fault runtime (fault-free operation resumes; any
    /// corruption already landed in the tables of course remains).
    pub fn disable_faults(&mut self) {
        self.fault = None;
    }

    /// The fault configuration in force, if a runtime is attached.
    pub fn fault_config(&self) -> Option<FaultConfig> {
        self.fault.as_ref().map(|f| f.config)
    }

    /// Snapshot of the fault-campaign counters, if a runtime is attached.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(|f| f.stats)
    }

    /// Per-retired-sample fault hook: one SEU opportunity per memory,
    /// then one scrub slot. A single `None` check on the fault-free path.
    #[inline(always)]
    fn fault_tick(&mut self) {
        if self.fault.is_some() {
            self.fault_tick_active();
        }
    }

    /// The active-runtime body of [`fault_tick`](Self::fault_tick),
    /// out-of-line so the fault-free loops stay tight.
    #[inline(never)]
    fn fault_tick_active(&mut self) {
        let mut f = self.fault.take().expect("caller checked is_some");
        // With a quantized table the BRAM cell holds `stored_bits` code
        // bits, so strikes draw over the code domain and land at raw bit
        // `code_bit + shift` — which keeps the struck word on the stored
        // grid (the on-grid invariant the kernel's in-place reads rely on) and
        // models the physically narrower word.
        let (width, shift) = match &self.quant {
            Some(qr) => (qr.policy.stored_bits(), qr.policy.shift()),
            None => (V::storage_bits(), 0),
        };
        // Strikes land in the *committed* BRAM images — an in-flight
        // pipeline value is flip-flop state, not a memory cell, and a
        // pending write that later commits over a struck word rewrites
        // (re-encodes) it, exactly as the hardware would.
        if let Some((addr, bit)) = f.q_inj.maybe_strike(self.q.mem.len(), width) {
            f.stats.injected_q += 1;
            if let Some(v) = strike_word(
                self.q.mem[addr],
                &mut f.q_latent,
                &mut f.stats,
                f.config.ecc,
                addr,
                bit + shift,
            ) {
                self.q.mem[addr] = v;
            }
        }
        // The Qmax strike model targets the value field (the wide,
        // latch-poisoning-prone part of the word); the narrow action
        // field shares the codeword under ECC but its upset cross
        // section is a rounding error next to the value bits.
        if let Some((addr, bit)) = f.qmax_inj.maybe_strike(self.qmax.mem.len(), width) {
            f.stats.injected_qmax += 1;
            if let Some(v) = strike_word(
                self.qmax.mem[addr].0,
                &mut f.qmax_latent,
                &mut f.stats,
                f.config.ecc,
                addr,
                bit + shift,
            ) {
                self.qmax.mem[addr].0 = v;
            }
        }
        if f.config.scrub_period > 0 {
            f.samples_since_scrub += 1;
            if f.samples_since_scrub >= f.config.scrub_period {
                f.samples_since_scrub = 0;
                self.scrub_slot(&mut f);
            }
        }
        self.fault = Some(f);
    }

    /// One scrub engine slot: rebuild the Qmax entry under the cursor
    /// exactly from the committed Q row (value *and* greedy-action
    /// field, ties to the lowest action — `QmaxTable::rebuild_exact`
    /// semantics, one state at a time).
    fn scrub_slot(&mut self, f: &mut FaultRt) {
        let s = f.scrub_cursor;
        let base = s * self.num_actions;
        let mut best_v = self.q.mem[base];
        let mut best_a = 0 as Action;
        for a in 1..self.num_actions {
            let v = self.q.mem[base + a];
            if v.vcmp(best_v) == core::cmp::Ordering::Greater {
                best_v = v;
                best_a = a as Action;
            }
        }
        f.stats.scrub_entries += 1;
        let cur = self.qmax.mem[s];
        if QValue::to_bits(cur.0) != QValue::to_bits(best_v) || cur.1 != best_a {
            self.qmax.mem[s] = (best_v, best_a);
            f.stats.scrub_repairs += 1;
            // The scrub writeback re-encodes the word: a recorded latent
            // ECC error on it is gone.
            f.qmax_latent.retain(|l| l.addr != s);
        }
        f.scrub_cursor += 1;
        if f.scrub_cursor >= self.num_states {
            f.scrub_cursor = 0;
            f.stats.scrub_rounds += 1;
        }
    }

    // ---- checkpoint / restore ------------------------------------------

    /// Serialize the full mutable training state into a checkpoint
    /// container (see `crate::checkpoint` for the format): Q/Qmax
    /// images, the three LFSR unit states, cycle statistics, the
    /// inter-iteration carry, in-flight write queues (the pipeline is
    /// *not* quiesced — resume is bit-exact mid-flight), and the fault
    /// runtime if one is attached. Telemetry (counter bank, event sink)
    /// is observability, not architectural state, and is not captured —
    /// with one exception: an attached health probe *is* captured, so a
    /// resumed run probes exactly the samples the unbroken run would
    /// (the stride cursor is part of the sampling plan).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut w = WordWriter::new(checkpoint::MAGIC, checkpoint::VERSION);
        w.push_str(&V::format_name());
        w.push(V::storage_bits() as u64);
        w.push(self.num_states as u64);
        w.push(self.num_actions as u64);
        // Cycle statistics.
        w.push(self.stats.cycles);
        w.push(self.stats.samples);
        w.push(self.stats.stalls);
        w.push(self.stats.fill_bubbles);
        w.push(self.stats.forwards);
        // LFSR unit states (peek/new round-trips exactly; a live LFSR
        // state is never zero, so the zero-seed remap cannot fire).
        w.push(self.start_rng.peek() as u64);
        w.push(self.behavior_rng.peek() as u64);
        w.push(self.update_rng.peek() as u64);
        // Control state.
        let (tag, cs, ca) = match self.carry {
            None => (0u64, 0u64, 0u64),
            Some((s, None)) => (1, s as u64, 0),
            Some((s, Some(a))) => (2, s as u64, a as u64),
        };
        w.push(tag);
        w.push(cs);
        w.push(ca);
        w.push(self.next_c1);
        w.push(self.q.horizon);
        w.push(self.qmax.horizon);
        // Memory images.
        for &v in &self.q.mem {
            w.push(QValue::to_bits(v));
        }
        for &(v, a) in &self.qmax.mem {
            w.push(QValue::to_bits(v));
            w.push(a as u64);
        }
        // In-flight write queues.
        w.push(self.q.ring.len() as u64);
        for p in self.q.ring.iter() {
            w.push(p.commit_cycle);
            w.push(p.addr as u64);
            w.push(QValue::to_bits(p.value));
        }
        w.push(self.qmax.ring.len() as u64);
        for p in self.qmax.ring.iter() {
            w.push(p.commit_cycle);
            w.push(p.addr as u64);
            w.push(QValue::to_bits(p.value.0));
            w.push(p.value.1 as u64);
        }
        // Fault runtime.
        match &self.fault {
            None => w.push(0),
            Some(f) => {
                w.push(1);
                w.push(f.config.seed);
                w.push_f64(f.config.q_seu_rate);
                w.push_f64(f.config.qmax_seu_rate);
                w.push(f.config.ecc as u64);
                w.push(f.config.scrub_period);
                w.push(f.q_inj.rng_state() as u64);
                w.push(f.q_inj.injected());
                w.push(f.qmax_inj.rng_state() as u64);
                w.push(f.qmax_inj.injected());
                w.push(f.scrub_cursor as u64);
                w.push(f.samples_since_scrub);
                w.push(f.stats.injected_q);
                w.push(f.stats.injected_qmax);
                w.push(f.stats.corrected);
                w.push(f.stats.detected_uncorrectable);
                w.push(f.stats.scrub_entries);
                w.push(f.stats.scrub_rounds);
                w.push(f.stats.scrub_repairs);
                for latents in [&f.q_latent, &f.qmax_latent] {
                    w.push(latents.len() as u64);
                    for l in latents {
                        w.push(l.addr as u64);
                        w.push(l.bit as u64);
                        w.push(l.snapshot);
                    }
                }
            }
        }
        // Health probe (length-prefixed so readers without the section
        // still parse; readers of older checkpoints see it absent).
        match self.sink.health() {
            None => w.push(0),
            Some(probe) => {
                w.push(1);
                let words = probe.checkpoint_words();
                w.push(words.len() as u64);
                for word in words {
                    w.push(word);
                }
            }
        }
        // Quantized-storage section (trailing, same absent-tag scheme:
        // readers of older checkpoints see it absent). The Q/Qmax images
        // above stay working-format words — they are on the stored grid,
        // so the round trip is exact and unquantized readers still parse.
        match &self.quant {
            None => w.push(0),
            Some(qr) => {
                w.push(1);
                w.push(qr.policy.stored_bits() as u64);
                w.push(qr.policy.shift() as u64);
                w.push(qr.rng.peek() as u64);
            }
        }
        // The §VII-B units' section, written by the customization
        // fixtures only: the state of each unit the fixture uses, the
        // probability table behind a presence tag.
        if let Some(c) = self.custom() {
            if A::NOISE {
                c.noise
                    .states()
                    .into_iter()
                    .for_each(|x| w.push(u64::from(x)));
            }
            if A::ROLES.contains(&true) {
                w.push(u64::from(c.table.is_some()));
            }
            if let Some(t) = &c.table {
                w.push(t.p.horizon);
                t.p.mem.iter().for_each(|v| w.push(v.to_bits()));
                w.push(t.p.ring.len() as u64);
                for p in t.p.ring.iter() {
                    w.push(p.commit_cycle);
                    w.push(p.addr as u64);
                    w.push(p.value.to_bits());
                }
            }
            if A::CHAINS {
                w.push(u64::from(c.chains.peek()));
            }
        }
        // Lease-epoch section (trailing, same absent-tag scheme). Only
        // written when non-zero so non-cluster checkpoints stay
        // byte-identical to what earlier releases wrote.
        if self.lease_epoch != 0 {
            w.push(1);
            w.push(self.lease_epoch);
        }
        w.seal()
    }

    /// Restore state captured by [`checkpoint_bytes`](Self::checkpoint_bytes)
    /// into this pipeline. The pipeline must have been built for the
    /// same environment dimensions, value format *and configuration* as
    /// the checkpointed one (dimensions and format are verified;
    /// trainer/hazard configuration is the caller's contract — restoring
    /// under a different config is well-defined but obviously not a
    /// bit-exact resume of the original run).
    ///
    /// All-or-nothing: on any error the pipeline is left untouched.
    pub fn restore_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = checkpoint::open(bytes)?;
        let found = r.take_str()?;
        let expected = V::format_name();
        if found != expected {
            return Err(CheckpointError::Mismatch {
                field: "value format",
                expected,
                found,
            });
        }
        same("storage bits", r.take()?, u64::from(V::storage_bits()))?;
        same("num_states", r.take()?, self.num_states as u64)?;
        same("num_actions", r.take()?, self.num_actions as u64)?;
        // Decode everything into temporaries first so a short payload
        // cannot leave the pipeline half-restored. Nothing restored is
        // trusted: every count is read bounded by the words left, every
        // index is checked against this pipeline's shape, and every
        // counter and clock against the counter limit, here, before the
        // commit phase — a forged word is refused instead of panicking
        // the next training call.
        let (ns, na, nq_words) = (self.num_states, self.num_actions, self.q.mem.len());
        let stats = CycleStats {
            cycles: counter("cycles", r.take()?)?,
            samples: counter("samples", r.take()?)?,
            stalls: counter("stalls", r.take()?)?,
            fill_bubbles: counter("fill bubbles", r.take()?)?,
            forwards: counter("forwards", r.take()?)?,
        };
        let start_rng = Lfsr32::new(r.take()? as u32);
        let behavior_rng = Lfsr32::new(r.take()? as u32);
        let update_rng = Lfsr32::new(r.take()? as u32);
        let (tag, cs, ca) = (r.take()?, r.take()?, r.take()?);
        let carry = match tag {
            0 => None,
            1 => Some((index("carry state", cs, ns)? as State, None)),
            _ => Some((
                index("carry state", cs, ns)? as State,
                Some(index("carry action", ca, na)? as Action),
            )),
        };
        let next_c1 = counter("next issue cycle", r.take()?)?;
        let mut q = Bank {
            kind: MemKind::Q,
            mem: Vec::with_capacity(nq_words),
            ring: InFlight::new(V::zero()),
            horizon: counter("Q drain horizon", r.take()?)?,
        };
        let mut qmax = Bank {
            kind: MemKind::Qmax,
            mem: Vec::with_capacity(ns),
            ring: InFlight::new((V::zero(), 0)),
            horizon: counter("Qmax drain horizon", r.take()?)?,
        };
        // An in-flight write commits at most one write offset past the
        // last issued sample (the stall-free kernel indexes its window
        // by that distance).
        let commit_bound = next_c1 + WRITE_OFFSET;
        for _ in 0..nq_words {
            q.mem.push(V::from_bits(r.take()?));
        }
        for _ in 0..ns {
            let v = V::from_bits(r.take()?);
            qmax.mem
                .push((v, index("Qmax action", r.take()?, na)? as Action));
        }
        for _ in 0..r.take_count(3)? {
            let p = Pending {
                commit_cycle: below("pending Q commit cycle", r.take()?, commit_bound)?,
                addr: index("pending Q address", r.take()?, nq_words)?,
                value: V::from_bits(r.take()?),
            };
            q.ring.try_push("pending Q writes", p)?;
        }
        for _ in 0..r.take_count(4)? {
            let p = Pending {
                commit_cycle: below("pending Qmax commit cycle", r.take()?, commit_bound)?,
                addr: index("pending Qmax address", r.take()?, ns)?,
                value: {
                    let v = V::from_bits(r.take()?);
                    (v, index("pending Qmax action", r.take()?, na)? as Action)
                },
            };
            qmax.ring.try_push("pending Qmax writes", p)?;
        }
        let fault = if r.take()? == 0 {
            None
        } else {
            let config = FaultConfig {
                seed: r.take()?,
                q_seu_rate: probability("Q SEU rate", r.take_f64()?)?,
                qmax_seu_rate: probability("Qmax SEU rate", r.take_f64()?)?,
                ecc: r.take()? != 0,
                scrub_period: r.take()?,
            };
            let mut f = FaultRt::new(config);
            let (qs, qi) = (r.take()? as u32, counter("Q strikes", r.take()?)?);
            f.q_inj.restore(qs, qi);
            let (ms, mi) = (r.take()? as u32, counter("Qmax strikes", r.take()?)?);
            f.qmax_inj.restore(ms, mi);
            f.scrub_cursor = index("scrub cursor", r.take()?, ns)?;
            f.samples_since_scrub = counter("samples since scrub", r.take()?)?;
            f.stats = FaultStats {
                injected_q: counter("fault stats", r.take()?)?,
                injected_qmax: counter("fault stats", r.take()?)?,
                corrected: counter("fault stats", r.take()?)?,
                detected_uncorrectable: counter("fault stats", r.take()?)?,
                scrub_entries: counter("fault stats", r.take()?)?,
                scrub_rounds: counter("fault stats", r.take()?)?,
                scrub_repairs: counter("fault stats", r.take()?)?,
            };
            for (latents, bound) in [(&mut f.q_latent, nq_words), (&mut f.qmax_latent, ns)] {
                let n = r.take_count(3)?;
                for _ in 0..n {
                    latents.push(LatentError {
                        addr: index("latent error address", r.take()?, bound)?,
                        bit: index("latent error bit", r.take()?, V::storage_bits() as usize)?
                            as u32,
                        snapshot: r.take()?,
                    });
                }
            }
            Some(Box::new(f))
        };
        // Health probe section. Checkpoints written before health
        // instrumentation existed simply end here — treat that exactly
        // like a health-absent checkpoint. Decoded (and validated)
        // before the commit phase, like everything else.
        let health = if r.remaining() == 0 || r.take()? == 0 {
            None
        } else {
            let nwords = r.take_count(1)?;
            let mut words = Vec::with_capacity(nwords);
            for _ in 0..nwords {
                words.push(r.take()?);
            }
            let mut probe =
                qtaccel_telemetry::HealthProbe::new(qtaccel_telemetry::HealthConfig::default());
            probe
                .restore_from_words(&words)
                .map_err(|e| CheckpointError::Mismatch {
                    field: "health probe",
                    expected: "internally consistent probe section".to_string(),
                    found: e,
                })?;
            if probe.num_states() != 0 && probe.num_states() != self.num_states as u64 {
                return Err(CheckpointError::Mismatch {
                    field: "health probe num_states",
                    expected: self.num_states.to_string(),
                    found: probe.num_states().to_string(),
                });
            }
            Some(probe)
        };
        // Quantized-storage section. Checkpoints written before
        // quantization existed end here — treat that as quant-absent.
        // Validated manually (typed error, not a panic) before commit.
        let quant = if r.remaining() == 0 || r.take()? == 0 {
            None
        } else {
            let stored_bits = r.take()? as u32;
            let shift = r.take()? as u32;
            let w = V::storage_bits();
            let valid = (2..=32).contains(&stored_bits)
                && shift < 32
                && stored_bits < w
                && stored_bits + shift <= w;
            if !valid {
                return Err(CheckpointError::Mismatch {
                    field: "quant policy",
                    expected: format!("stored_bits in [2, {w}), stored_bits + shift <= {w}"),
                    found: format!("stored_bits {stored_bits}, shift {shift}"),
                });
            }
            let rng = Lfsr32::new(r.take()? as u32);
            let policy = QuantPolicy::new(stored_bits, shift);
            // The kernel reads Q in place: every stored word must sit
            // on the quantized grid.
            let on_grid = |v: V| policy.try_code(v).is_some();
            let all_on_grid = q.mem.iter().all(|&v| on_grid(v))
                && qmax.mem.iter().all(|&(v, _)| on_grid(v))
                && q.ring.iter().all(|p| on_grid(p.value))
                && qmax.ring.iter().all(|p| on_grid(p.value.0));
            if !all_on_grid {
                return Err(CheckpointError::Mismatch {
                    field: "quantized Q value",
                    expected: format!("values on the {stored_bits}-bit stored grid"),
                    found: "an off-grid value".to_string(),
                });
            }
            Some(QuantRt { policy, rng })
        };
        let custom = match self.custom() {
            None => None,
            Some(c) => Some(restore_custom::<A>(&mut r, c, commit_bound)?),
        };
        // Lease-epoch section. Absent (older or non-cluster checkpoint)
        // means epoch 0.
        let lease_epoch = if r.remaining() == 0 || r.take()? == 0 {
            0
        } else {
            r.take()?
        };
        // Nothing follows the last section: words left over are another
        // fixture's units (or a forgery), not this engine's state.
        same("words past the last section", r.remaining() as u64, 0)?;

        // Commit.
        self.stats = stats;
        self.start_rng = start_rng;
        self.behavior_rng = behavior_rng;
        self.update_rng = update_rng;
        self.carry = carry;
        self.next_c1 = next_c1;
        self.q = q;
        self.qmax = qmax;
        self.fault = fault;
        // Adopt the checkpoint's quantization state wholesale. A
        // quant-absent checkpoint restored into a quant-enabled pipeline
        // (or vice versa) is a configuration mismatch like restoring
        // under a different trainer config — well-defined (the restored
        // state simply runs under the restored quant mode) but not a
        // bit-exact resume; matching configs is the caller's contract.
        self.quant = quant;
        self.lease_epoch = lease_epoch;
        if let (Some(slot), Some(custom)) = (self.custom.get(), custom) {
            *slot = custom;
        }
        // Rewards are not checkpointed: every reward table is rebuilt on
        // its next use, on the restored stored format's grid (or off
        // any grid when the checkpoint carries none).
        self.rewards = None;
        self.image = None;
        if S::HEALTH {
            if let Some(slot) = self.sink.health_mut() {
                match health {
                    Some(probe) => *slot = probe,
                    // Pre-health checkpoint: the resumed run's probe
                    // starts fresh (its binding survives the reset).
                    None => slot.reset(),
                }
            }
        }
        Ok(())
    }

    /// Durably write a checkpoint to `path` (atomic write-then-rename:
    /// a crash leaves either the previous or the new complete file).
    pub fn save_checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::atomic_write(path, &self.checkpoint_bytes())
    }

    /// Restore from a checkpoint file written by
    /// [`save_checkpoint`](Self::save_checkpoint). Truncated, corrupt,
    /// wrong-version or wrong-shape files are refused with a typed
    /// [`CheckpointError`] and leave the pipeline untouched.
    pub fn restore_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.restore_checkpoint_bytes(&bytes)
    }

    /// The lease-fencing epoch the pipeline currently trains under
    /// (stamped into every checkpoint it saves; 0 outside cluster runs).
    pub fn lease_epoch(&self) -> u64 {
        self.lease_epoch
    }

    /// Stamp the lease-fencing epoch. The cluster worker sets this when
    /// it picks a lease up, so checkpoints written from a superseded
    /// assignment are distinguishable from the live one. Epoch state is
    /// metadata only — it never feeds the training datapath, so stamping
    /// it cannot perturb bit-exactness.
    pub fn set_lease_epoch(&mut self, epoch: u64) {
        self.lease_epoch = epoch;
    }
}

/// Decode the §VII-B units' checkpoint section into a copy of `have`,
/// the restoring engine's units, for fixture `A`: the table's presence
/// tag must say what `have` holds, and every count, index, commit cycle
/// and weight is checked before anything is returned.
fn restore_custom<A: sealed::Sealed>(
    r: &mut WordReader<'_>,
    have: &Custom,
    commit_bound: u64,
) -> Result<Custom, CheckpointError> {
    let mut c = have.clone();
    if A::NOISE {
        let states = (0..have.noise.terms()).map(|_| r.take().map(|x| x as u32));
        c.noise = NormalLfsr::from_states(&states.collect::<Result<Vec<_>, _>>()?);
    }
    if A::ROLES.contains(&true) {
        same(
            "probability table",
            r.take()?,
            u64::from(have.table.is_some()),
        )?;
    }
    if let Some(t) = c.table.as_mut() {
        let exp3 = matches!(t.rule, TableRule::Exp3 { .. });
        let word = |bits: u64| match f64::from_bits(bits) {
            w if w.is_finite() && (exp3 || w >= 0.0) => Ok(w),
            w => Err(CheckpointError::Mismatch {
                field: "probability table word",
                expected: "a finite weight, non-negative under Eq. 4".to_string(),
                found: w.to_string(),
            }),
        };
        t.p.horizon = counter("P drain horizon", r.take()?)?;
        for i in 0..t.p.mem.len() {
            t.p.mem[i] = word(r.take()?)?;
        }
        t.p.ring = InFlight::new(0.0);
        for _ in 0..r.take_count(3)? {
            let p = Pending {
                commit_cycle: below("pending P commit cycle", r.take()?, commit_bound)?,
                addr: index("pending P address", r.take()?, t.p.mem.len())?,
                value: word(r.take()?)?,
            };
            t.p.ring.try_push("pending P writes", p)?;
        }
    }
    if A::CHAINS {
        c.chains = Lfsr32::new(r.take()? as u32);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qtaccel_core::trainer::{RefTrainer, TrainerConfig};
    use qtaccel_envs::GridWorld;
    use qtaccel_fixed::{Q16_16, Q8_8};
    use std::collections::VecDeque;

    fn grid() -> GridWorld {
        GridWorld::builder(8, 8).goal(7, 7).build()
    }

    fn config(seed: u64) -> AccelConfig {
        AccelConfig::default().with_seed(seed)
    }

    #[test]
    fn one_sample_per_cycle_with_forwarding() {
        let g = grid();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(1), 0);
        let stats = p.run_samples(&g, 10_000);
        assert_eq!(stats.samples, 10_000);
        assert_eq!(stats.stalls, 0, "forwarding never stalls");
        assert_eq!(stats.cycles, 10_000 + FILL, "fill + 1/cycle");
        assert!(stats.samples_per_cycle() > 0.999);
    }

    #[test]
    fn forwarding_events_happen() {
        // Consecutive updates do collide on this small world; the
        // forwarding network must actually fire.
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(2), 0);
        let stats = p.run_samples(&g, 5_000);
        assert!(stats.forwards > 0, "no hazards on a 4-state world?");
    }

    #[test]
    fn bit_exact_vs_golden_reference_q_learning() {
        let g = grid();
        for seed in [1u64, 7, 42, 12345] {
            let mut hw = AccelPipeline::<Q8_8>::new(&g, config(seed), 0);
            let mut sw =
                RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(seed));
            hw.run_samples(&g, 20_000);
            sw.run_samples(20_000);
            assert_eq!(
                hw.q_table().as_slice(),
                sw.q().as_slice(),
                "seed {seed}: pipeline diverged from sequential reference"
            );
        }
    }

    #[test]
    fn bit_exact_vs_golden_reference_sarsa() {
        let g = grid();
        for seed in [3u64, 99] {
            let mut cfg = config(seed);
            cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(seed);
            let mut hw = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
            let mut sw =
                RefTrainer::<Q8_8, _>::new(g.clone(), TrainerConfig::sarsa(0.2).with_seed(seed));
            hw.run_samples(&g, 20_000);
            sw.run_samples(20_000);
            assert_eq!(
                hw.q_table().as_slice(),
                sw.q().as_slice(),
                "seed {seed}: SARSA pipeline diverged"
            );
        }
    }

    #[test]
    fn stall_mode_is_slower_but_value_identical() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut fwd = AccelPipeline::<Q8_8>::new(&g, config(5), 0);
        let mut stall =
            AccelPipeline::<Q8_8>::new(&g, config(5).with_hazard(HazardMode::StallOnly), 0);
        let sf = fwd.run_samples(&g, 10_000);
        let ss = stall.run_samples(&g, 10_000);
        assert_eq!(
            fwd.q_table().as_slice(),
            stall.q_table().as_slice(),
            "stalling must preserve values"
        );
        assert!(ss.stalls > 0, "small world must provoke stalls");
        assert!(
            ss.cycles > sf.cycles,
            "stall-only must be slower: {} vs {}",
            ss.cycles,
            sf.cycles
        );
        assert!(ss.samples_per_cycle() < 1.0);
    }

    #[test]
    fn ignore_mode_diverges_from_reference() {
        // Without dependency handling the pipeline reads stale operands;
        // on a tiny world the trajectories must diverge measurably.
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let mut bad =
            AccelPipeline::<Q16_16>::new(&g, config(6).with_hazard(HazardMode::Ignore), 0);
        let mut sw =
            RefTrainer::<Q16_16, _>::new(g.clone(), TrainerConfig::q_learning().with_seed(6));
        // Compare step by step: both trajectories eventually converge to
        // the same fixed point, so the corruption is visible mid-flight,
        // not necessarily in the final table.
        let mut diverged = false;
        for _ in 0..2_000 {
            let th = bad.step(&g);
            let ts = sw.step();
            // Same RNG units => identical (s, a) streams until values
            // feed back into action selection; q_new differs as soon as a
            // stale operand is consumed.
            if th.q_new != ts.q_new || th.s != ts.s || th.a != ts.a {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "stale reads should corrupt at least one update on a 4-state world"
        );
        // But it still runs at full throughput — that is the trap.
        assert_eq!(bad.stats().stalls, 0);
    }

    #[test]
    fn exact_scan_mode_matches_reference_and_costs_cycles() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let cfg = config(8).with_max_mode(MaxMode::ExactScan);
        let mut hw = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        let mut sw = RefTrainer::<Q8_8, _>::new(
            g.clone(),
            TrainerConfig::q_learning()
                .with_seed(8)
                .with_max_mode(MaxMode::ExactScan),
        );
        let stats = hw.run_samples(&g, 5_000);
        sw.run_samples(5_000);
        assert_eq!(hw.q_table().as_slice(), sw.q().as_slice());
        // Every sample pays the |A|-1 = 3 extra scan cycles.
        assert!(stats.stalls >= 3 * 5_000, "stalls {}", stats.stalls);
        assert!(stats.samples_per_cycle() < 0.3);
    }

    #[test]
    fn pipeline_learns_the_grid() {
        let g = grid();
        let mut p = AccelPipeline::<Q16_16>::new(&g, config(11), 0);
        p.run_samples(&g, 400_000);
        let policy = p.greedy_policy();
        let opt = qtaccel_core::eval::step_optimality(&g, &policy, &g.shortest_distances());
        assert!(opt > 0.95, "step-optimality {opt}");
    }

    #[test]
    fn qmax_extraction_is_upper_bound() {
        let g = grid();
        let mut p = AccelPipeline::<Q8_8>::new(&g, config(13), 0);
        p.run_samples(&g, 50_000);
        let q = p.q_table();
        let qmax = p.qmax_table();
        for s in 0..g.num_states() as State {
            let (_, true_max) = q.max_exact(s);
            assert!(qmax.get(s).0 >= true_max, "state {s}");
        }
    }

    #[test]
    #[should_panic(expected = "not synthesizable")]
    fn boltzmann_rejected_on_qrl_engine() {
        let g = grid();
        let mut cfg = config(1);
        cfg.trainer.behavior = Policy::Boltzmann { temperature: 1.0 };
        let mut p = AccelPipeline::<Q8_8>::new(&g, cfg, 0);
        p.step(&g);
    }

    /// Every CycleStats counter pinned to the values the scan-per-read,
    /// drain-per-read formulation produced (captured from the
    /// pre-refactor engine). Guards the memory banks' in-flight rings,
    /// visibility horizons and shared hazard accounting, and the
    /// per-step commit point, against any silent accounting drift, in
    /// every hazard mode.
    #[test]
    fn hazard_mode_cycle_stats_are_pinned() {
        struct Gold {
            w: u32,
            h: u32,
            seed: u64,
            hazard: HazardMode,
            n: u64,
            cycles: u64,
            stalls: u64,
            forwards: u64,
        }
        let golds = [
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::Forwarding,
                n: 7_000,
                cycles: 7_003,
                stalls: 0,
                forwards: 1_859,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::Forwarding,
                n: 12_000,
                cycles: 12_003,
                stalls: 0,
                forwards: 1_714,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::Forwarding,
                n: 20_000,
                cycles: 20_003,
                stalls: 0,
                forwards: 2_433,
            },
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::StallOnly,
                n: 7_000,
                cycles: 10_853,
                stalls: 3_850,
                forwards: 0,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::StallOnly,
                n: 12_000,
                cycles: 15_351,
                stalls: 3_348,
                forwards: 0,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::StallOnly,
                n: 20_000,
                cycles: 24_312,
                stalls: 4_309,
                forwards: 0,
            },
            Gold {
                w: 2,
                h: 2,
                seed: 21,
                hazard: HazardMode::Ignore,
                n: 7_000,
                cycles: 7_003,
                stalls: 0,
                forwards: 0,
            },
            Gold {
                w: 4,
                h: 4,
                seed: 9,
                hazard: HazardMode::Ignore,
                n: 12_000,
                cycles: 12_003,
                stalls: 0,
                forwards: 0,
            },
            Gold {
                w: 8,
                h: 8,
                seed: 5,
                hazard: HazardMode::Ignore,
                n: 20_000,
                cycles: 20_003,
                stalls: 0,
                forwards: 0,
            },
        ];
        for g in &golds {
            let env = GridWorld::builder(g.w, g.h).goal(g.w - 1, g.h - 1).build();
            let cfg = AccelConfig::default()
                .with_seed(g.seed)
                .with_hazard(g.hazard);
            let mut p = AccelPipeline::<Q8_8>::new(&env, cfg, 0);
            let stats = p.run_samples(&env, g.n);
            assert_eq!(
                (
                    stats.cycles,
                    stats.stalls,
                    stats.forwards,
                    stats.fill_bubbles
                ),
                (g.cycles, g.stalls, g.forwards, FILL),
                "{}x{} seed {} {:?}",
                g.w,
                g.h,
                g.seed,
                g.hazard
            );
        }

        // SARSA exercises the ε-greedy stage-2 Q read path.
        let env = GridWorld::builder(4, 4).goal(3, 3).build();
        for (hazard, cycles, stalls) in [
            (HazardMode::StallOnly, 18_168u64, 3_165u64),
            (HazardMode::Ignore, 15_003, 0),
        ] {
            let mut cfg = AccelConfig::default().with_hazard(hazard);
            cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(17);
            cfg.hazard = hazard;
            let mut p = AccelPipeline::<Q8_8>::new(&env, cfg, 0);
            let stats = p.run_samples(&env, 15_000);
            assert_eq!(
                (stats.cycles, stats.stalls),
                (cycles, stalls),
                "sarsa {hazard:?}"
            );
        }

        // ExactScan exercises the multi-cycle stage-2 row scan.
        let cfg = AccelConfig::default()
            .with_seed(13)
            .with_hazard(HazardMode::StallOnly)
            .with_max_mode(MaxMode::ExactScan);
        let mut p = AccelPipeline::<Q8_8>::new(&env, cfg, 0);
        let stats = p.run_samples(&env, 8_000);
        assert_eq!(
            (stats.cycles, stats.stalls),
            (34_617, 26_614),
            "exact-scan stall-only"
        );
    }

    /// The loops `hazard_mode_cycle_stats_are_pinned` leaves open: the
    /// out-of-line row scan under `Forwarding` and `Ignore`, and SARSA's
    /// stage-2 Q read under `Forwarding`. Each run starts episodes
    /// through the out-of-line start selector, so these also pin its
    /// draws. Values as (cycles, stalls, forwards).
    #[test]
    fn every_cycle_engine_loop_is_pinned() {
        let env = GridWorld::builder(4, 4).goal(3, 3).build();
        for (hazard, gold) in [
            (HazardMode::Forwarding, (32_003, 24_000, 1_584)),
            (HazardMode::Ignore, (32_003, 24_000, 0)),
        ] {
            let cfg = AccelConfig::default()
                .with_seed(13)
                .with_hazard(hazard)
                .with_max_mode(MaxMode::ExactScan);
            let stats = AccelPipeline::<Q8_8>::new(&env, cfg, 0).run_samples(&env, 8_000);
            assert_eq!(
                (stats.cycles, stats.stalls, stats.forwards),
                gold,
                "exact-scan {hazard:?}"
            );
        }

        let mut cfg = AccelConfig::default().with_hazard(HazardMode::Forwarding);
        cfg.trainer = TrainerConfig::sarsa(0.2).with_seed(17);
        let stats = AccelPipeline::<Q8_8>::new(&env, cfg, 0).run_samples(&env, 15_000);
        assert_eq!(
            (stats.cycles, stats.stalls, stats.forwards),
            (15_003, 0, 2_331),
            "sarsa forwarding"
        );
    }

    /// A grid world that counts its `reward` calls, so a test can see
    /// which reward tables an engine builds.
    struct CountingEnv {
        inner: GridWorld,
        rewards: std::cell::Cell<u64>,
    }

    impl Environment for CountingEnv {
        fn num_states(&self) -> usize {
            self.inner.num_states()
        }
        fn num_actions(&self) -> usize {
            self.inner.num_actions()
        }
        fn transition(&self, s: State, a: Action) -> State {
            self.inner.transition(s, a)
        }
        fn reward(&self, s: State, a: Action) -> f64 {
            self.rewards.set(self.rewards.get() + 1);
            self.inner.reward(s, a)
        }
        fn is_terminal(&self, s: State) -> bool {
            self.inner.is_terminal(s)
        }
        fn is_valid_state(&self, s: State) -> bool {
            self.inner.is_valid_state(s)
        }
    }

    /// The fast path never builds the cycle-accurate engine's reward ROM;
    /// the first cycle-accurate step builds it in one sweep, on the
    /// stored grid in force, and only once; a restore drops it.
    #[test]
    fn reward_rom_is_built_by_the_first_step_only() {
        let env = CountingEnv {
            inner: GridWorld::builder(8, 8).goal(7, 7).goal_reward(0.3).build(),
            rewards: std::cell::Cell::new(0),
        };
        let cells = env.num_pairs() as u64;
        for quant in [None, Some(QuantPolicy::q8())] {
            let mut p = AccelPipeline::<Q8_8>::new(&env, config(3), 0);
            if let Some(policy) = quant {
                p.enable_quant(policy);
            }
            assert!(p.stall_free_eligible(), "{quant:?}");
            env.rewards.set(0);
            p.run_samples_fast(&env, 5_000);
            p.run_samples_fast(&env, 5_000);
            assert!(
                p.rewards.is_none(),
                "{quant:?}: the fast path built the ROM"
            );
            assert_eq!(env.rewards.get(), cells, "{quant:?}: one image sweep");

            p.step(&env);
            let want = match quant {
                Some(policy) => {
                    RewardTable::<Q8_8>::from_env_with(&env.inner, |v| policy.round_nearest(v))
                }
                None => RewardTable::from_env(&env.inner),
            };
            let rom = p.rewards.as_ref().expect("the first step builds the ROM");
            assert_eq!(rom.as_slice(), want.as_slice(), "{quant:?}");
            assert_eq!(env.rewards.get(), 2 * cells, "{quant:?}: one ROM sweep");
            p.run_samples(&env, 5_000);
            p.run_samples_fast(&env, 5_000);
            assert_eq!(env.rewards.get(), 2 * cells, "{quant:?}: built once");

            p.restore_checkpoint_bytes(&p.checkpoint_bytes())
                .expect("restore");
            assert!(p.rewards.is_none(), "{quant:?}: restore drops the ROM");
        }
    }

    /// A 16×16, 8-action grid world whose reward(s, a) is (s·8 + a)/512,
    /// so nearly every cell has a reward of its own and α·R takes more
    /// distinct values than a kernel image word can index. It counts its
    /// `reward` calls, as [`CountingEnv`] does.
    struct SpreadEnv {
        inner: GridWorld,
        rewards: std::cell::Cell<u64>,
    }

    impl Environment for SpreadEnv {
        fn num_states(&self) -> usize {
            self.inner.num_states()
        }
        fn num_actions(&self) -> usize {
            self.inner.num_actions()
        }
        fn transition(&self, s: State, a: Action) -> State {
            self.inner.transition(s, a)
        }
        fn reward(&self, s: State, a: Action) -> f64 {
            self.rewards.set(self.rewards.get() + 1);
            f64::from(s * 8 + a) / 512.0
        }
        fn is_terminal(&self, s: State) -> bool {
            self.inner.is_terminal(s)
        }
        fn is_valid_state(&self, s: State) -> bool {
            self.inner.is_valid_state(s)
        }
    }

    /// Both engines' state, for a bit-for-bit comparison.
    fn state(p: &AccelPipeline<Q8_8>) -> (Vec<Q8_8>, QmaxTable<Q8_8>, CycleStats) {
        (p.q_table().as_slice().to_vec(), p.qmax_table(), p.stats())
    }

    /// An environment whose α·R values the image cannot index runs the
    /// cycle-accurate engine from the fast entry point, with the same
    /// bits. The refused build sweeps once and is recorded, so a second
    /// call does not sweep again; a restore and `enable_quant` drop the
    /// record.
    #[test]
    fn an_image_that_cannot_be_indexed_falls_back_to_the_cycle_engine() {
        let env = SpreadEnv {
            inner: GridWorld::builder(16, 16)
                .goal(15, 15)
                .actions(qtaccel_envs::ActionSet::Eight)
                .build(),
            rewards: std::cell::Cell::new(0),
        };
        let cells = env.num_pairs() as u64;
        let mut fast = AccelPipeline::<Q8_8>::new(&env, config(4), 0);
        let mut slow = AccelPipeline::<Q8_8>::new(&env, config(4), 0);
        assert!(fast.stall_free_eligible());

        fast.run_samples_fast(&env, 5_000);
        assert!(matches!(fast.image, Some(None)), "the image is refused");
        // The refused build stops partway through its one sweep; the
        // cycle-accurate engine's ROM then takes one full sweep.
        let swept = env.rewards.get();
        assert!(swept > cells && swept < 2 * cells, "{swept} reward calls");
        fast.run_samples_fast(&env, 5_000);
        assert_eq!(env.rewards.get(), swept, "the refusal is recorded");
        slow.run_samples(&env, 10_000);
        assert_eq!(state(&fast), state(&slow));

        fast.restore_checkpoint_bytes(&fast.checkpoint_bytes())
            .expect("restore");
        assert!(fast.image.is_none(), "a restore drops the refusal");
        env.rewards.set(0);
        fast.run_samples_fast(&env, 5_000);
        assert_eq!(env.rewards.get(), swept, "one refused build, one ROM");
        slow.run_samples(&env, 5_000);
        assert_eq!(state(&fast), state(&slow));

        // On the 8-bit grid α·R takes at most 256 values, so after
        // `enable_quant` drops the refusal the kernel runs.
        let mut fast = AccelPipeline::<Q8_8>::new(&env, config(4), 0);
        let mut slow = AccelPipeline::<Q8_8>::new(&env, config(4), 0);
        fast.image = Some(KernelImage::build(&env, fast.alpha_v, None));
        assert!(matches!(fast.image, Some(None)), "the image is refused");
        fast.enable_quant(QuantPolicy::q8());
        slow.enable_quant(QuantPolicy::q8());
        assert!(fast.image.is_none(), "enable_quant drops the refusal");
        fast.run_samples_fast(&env, 10_000);
        assert!(matches!(fast.image, Some(Some(_))), "the kernel runs");
        slow.run_samples(&env, 10_000);
        assert_eq!(state(&fast), state(&slow));
    }

    /// Any stored format `validate_for` accepts runs the kernel: its
    /// words hold an α·R index, never a stored code.
    #[test]
    fn stored_formats_wider_than_a_byte_run_the_kernel() {
        let g = grid();
        for policy in [
            QuantPolicy::new(9, 4),
            QuantPolicy::new(12, 2),
            QuantPolicy::new(15, 1),
        ] {
            let mut p = AccelPipeline::<Q8_8>::new(&g, config(5), 0);
            p.enable_quant(policy);
            assert!(p.stall_free_eligible(), "{}", policy.format_name());
        }
    }

    /// One ring operation: `(kind, addr, gap)`. Kind 0 pushes a write
    /// `gap + 1` cycles after the newest (a commit when the pipe is
    /// full), 1 commits every write due before the oldest's cycle plus
    /// `gap`, 2 looks `addr` up, and 3 offers a checkpointed write whose
    /// commit cycle may fall back by up to two.
    fn ring_ops() -> impl Strategy<Value = Vec<(u8, usize, u64)>> {
        prop::collection::vec((0u8..4, 0usize..6, 0u64..4), 1..64)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-flight ring agrees with a `VecDeque` model of the pipe
        /// under any push / commit-until / lookup sequence of bounded
        /// depth: the newest writer per address, oldest-first commit,
        /// the iteration order `q_table`, `qmax_table` and
        /// `checkpoint_bytes` read, and which checkpointed writes restore
        /// accepts.
        #[test]
        fn ring_matches_a_queue_model(ops in ring_ops()) {
            let mut ring = InFlight::new(0u64);
            let mut model: VecDeque<Pending<u64>> = VecDeque::new();
            let mut newest = 0u64;
            for (i, (kind, addr, gap)) in ops.into_iter().enumerate() {
                let value = i as u64;
                match kind {
                    0 if model.len() < PIPE_DEPTH => {
                        newest += 1 + gap;
                        let p = Pending { commit_cycle: newest, addr, value };
                        ring.push(p);
                        model.push_back(p);
                    }
                    0 | 1 => {
                        let cycle = model.front().map_or(0, |p| p.commit_cycle) + gap;
                        let retired: Vec<_> = std::iter::from_fn(|| ring.pop_due(cycle)).collect();
                        let mut due = Vec::new();
                        while model.front().is_some_and(|p| p.commit_cycle < cycle) {
                            due.extend(model.pop_front());
                        }
                        prop_assert_eq!(retired, due);
                    }
                    2 => {
                        let want = model.iter().rev().find(|p| p.addr == addr).copied();
                        prop_assert_eq!(ring.newest(addr), want);
                    }
                    _ => {
                        let commit_cycle = (newest + gap).saturating_sub(2);
                        let p = Pending { commit_cycle, addr, value };
                        let fits = model.len() < PIPE_DEPTH
                            && model.back().is_none_or(|b| commit_cycle > b.commit_cycle);
                        prop_assert_eq!(ring.try_push("pending writes", p).is_ok(), fits);
                        if fits {
                            newest = commit_cycle;
                            model.push_back(p);
                        }
                    }
                }
                prop_assert_eq!(ring.len(), model.len());
                prop_assert!(ring.iter().eq(model.iter().copied()), "op {}: ring order", i);
            }
        }

        /// The one policy unit draws what the golden reference draws:
        /// `core::policy::Policy::select` (`rng.below(na)` for Random, no
        /// draw for Greedy, the one-word ε-greedy decision otherwise),
        /// word for word. The Qmax entry names an action no draw can
        /// return, so the reference's greedy branch reads as `None`.
        /// ε = 0 and ε = 1 (threshold `u32::MAX`) are the comparator's
        /// edges.
        #[test]
        fn policy_unit_draws_like_the_reference(
            seed in any::<u32>(),
            na in 1usize..=8,
            kind in 0u8..6,
            epsilon in 0.0f64..=1.0,
        ) {
            let policy = match kind {
                0 => Policy::Random,
                1 => Policy::Greedy,
                2 => Policy::EpsilonGreedy { epsilon: 0.0 },
                3 => Policy::EpsilonGreedy { epsilon: 1e-9 },
                4 => Policy::EpsilonGreedy { epsilon: 1.0 },
                _ => Policy::EpsilonGreedy { epsilon },
            };
            let trainer = TrainerConfig { behavior: policy, update: policy, ..TrainerConfig::q_learning() };
            let [behavior, update] = PolicyUnit::resolve(&trainer);
            prop_assert_eq!(behavior, update);
            let q = QTable::<Q8_8>::new(1, na);
            let mut qmax = QmaxTable::<Q8_8>::new(1);
            qmax.poke(0, Q8_8::zero(), na as Action);
            let mut reference = Lfsr32::new(seed);
            let mut lfsr = reference.clone();
            for _ in 0..16 {
                let want = policy.select(&q, &qmax, MaxMode::QmaxArray, 0, &mut reference);
                let want = (want != na as Action).then_some(want);
                prop_assert_eq!(behavior.draw(&mut lfsr, na), want);
                prop_assert_eq!(lfsr.peek(), reference.peek());
            }
        }
    }
}
