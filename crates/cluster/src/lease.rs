//! The coordinator's lease table: every lease transition of a cluster
//! run as one pure state machine. It owns no socket, thread or clock
//! (each call takes `now`), so the property suite below checks its rules
//! over random event interleavings without a network.
//!
//! * **One holder check** ([`LeaseTable::held_by`]): a `Progress` or
//!   `LeaseDone` counts only from the session holding that lease at that
//!   epoch. A refused frame changes nothing but `refused_frames`.
//! * **Epochs bump on every assignment and every release** (expiry or
//!   session exit), so one epoch value names one live assignment.
//! * **Whole-lease deltas merge exactly once.** A `LeaseDone` carries the
//!   lease budget as `samples`, and its delta must be exactly an honest
//!   worker's: the budget as `qtaccel_samples_total`, one completion, and
//!   nothing else. Any other counter value could overflow later honest
//!   merges and stall the run.
//! * **Expired sessions wait until they speak**: no lease until their
//!   next accepted frame, so a silent peer costs one expiry, not one per
//!   lease.

use std::time::{Duration, Instant};

use qtaccel_telemetry::{FramePayload, MetricsRegistry};

use crate::coordinator::{ClusterStatus, CoordinatorConfig};
use crate::worker::lease_delta;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Assignment {
    /// Unassigned: hand to the next idle session.
    Free,
    /// Held by session `conn`; quiet past `deadline` means dead.
    Assigned { conn: u64, deadline: Instant },
    /// Completed and merged. Terminal.
    Done,
}

#[derive(Debug, Clone, PartialEq)]
struct Lease {
    budget: u64,
    /// Fencing epoch: one value = one live assignment.
    epoch: u64,
    /// Latest progress report (informational; `Done` is authoritative).
    samples: u64,
    assignment: Assignment,
    reassignments: u64,
    /// Set at release; cleared by the first accepted frame of the next
    /// assignment (recovery-latency measurement).
    pending_since: Option<Instant>,
}

/// What [`LeaseTable::assign`] decided for a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Handout {
    /// Send this lease.
    Assign { lease: u64, epoch: u64, budget: u64 },
    /// Nothing to send: the session holds a lease, waits after an
    /// expiry, or every open lease is held.
    Wait,
    /// Every lease is done: say goodbye.
    Complete,
    /// A lease exhausted its reassignment budget: abort the session.
    Failed,
}

/// What the adapter does after [`LeaseTable::on_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Keep serving the session.
    Continue,
    /// Send `Goodbye{REFUSED}` and end the session.
    Refuse,
    /// The peer said goodbye: end the session.
    Close,
}

/// Every lease of one run, its merged registry and its counters.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LeaseTable {
    leases: Vec<Lease>,
    /// The exactly-once merged registry.
    pub(crate) merged: MetricsRegistry,
    heartbeat_timeout: Duration,
    max_reassignments: u64,
    /// Sessions whose lease expired and that have not spoken since.
    muted: Vec<u64>,
    /// The run's counters; [`LeaseTable::status`] fills in `leases` and
    /// `complete`.
    pub(crate) counts: ClusterStatus,
}

impl LeaseTable {
    /// One free lease per budget, all at epoch 0.
    pub(crate) fn new(budgets: Vec<u64>, cfg: CoordinatorConfig) -> Self {
        let lease = |budget| Lease {
            budget,
            epoch: 0,
            samples: 0,
            assignment: Assignment::Free,
            reassignments: 0,
            pending_since: None,
        };
        Self {
            leases: budgets.into_iter().map(lease).collect(),
            // Both protocol counters exist from the start, so even the
            // first completion is refused if it changes their kind.
            merged: lease_delta(0, 0),
            heartbeat_timeout: cfg.heartbeat_timeout,
            max_reassignments: cfg.max_reassignments,
            muted: Vec::new(),
            counts: ClusterStatus::default(),
        }
    }

    /// Every lease is done and merged.
    pub(crate) fn complete(&self) -> bool {
        self.counts.done == self.leases.len()
    }

    /// The public snapshot.
    pub(crate) fn status(&self) -> ClusterStatus {
        ClusterStatus {
            leases: self
                .leases
                .iter()
                .map(|l| (l.epoch, l.samples, l.assignment == Assignment::Done))
                .collect(),
            complete: self.complete(),
            ..self.counts.clone()
        }
    }

    /// The lease `conn` holds, if any.
    fn holding(&self, conn: u64) -> Option<usize> {
        self.leases
            .iter()
            .position(|l| matches!(l.assignment, Assignment::Assigned { conn: c, .. } if c == conn))
    }

    /// The one holder check: `lease` exists and `conn` holds it at
    /// `epoch`.
    fn held_by(&self, conn: u64, lease: u64, epoch: u64) -> Option<usize> {
        let i = usize::try_from(lease).ok()?;
        let l = self.leases.get(i)?;
        (l.epoch == epoch
            && matches!(l.assignment, Assignment::Assigned { conn: c, .. } if c == conn))
        .then_some(i)
    }

    /// Hand `conn` the first free lease, unless it holds one, the run is
    /// over, or it waits after an expiry.
    pub(crate) fn assign(&mut self, conn: u64, now: Instant) -> Handout {
        if self.holding(conn).is_some() {
            return Handout::Wait;
        }
        if self.counts.failed {
            return Handout::Failed;
        }
        if self.complete() {
            return Handout::Complete;
        }
        if self.muted.contains(&conn) {
            return Handout::Wait;
        }
        let deadline = now + self.heartbeat_timeout;
        let mut leases = self.leases.iter_mut().enumerate();
        let Some((i, l)) = leases.find(|(_, l)| l.assignment == Assignment::Free) else {
            return Handout::Wait;
        };
        l.epoch += 1;
        l.assignment = Assignment::Assigned { conn, deadline };
        Handout::Assign {
            lease: i as u64,
            epoch: l.epoch,
            budget: l.budget,
        }
    }

    /// Apply one frame `conn` sent after its handshake.
    pub(crate) fn on_frame(&mut self, conn: u64, payload: FramePayload, now: Instant) -> Reply {
        let held = Assignment::Assigned {
            conn,
            deadline: now + self.heartbeat_timeout,
        };
        let reply = match payload {
            FramePayload::Progress {
                lease,
                epoch,
                samples,
            } => match self.held_by(conn, lease, epoch) {
                Some(i) => {
                    self.leases[i].samples = samples;
                    self.heard_from(i, held, now);
                    Reply::Continue
                }
                None => Reply::Refuse,
            },
            FramePayload::Heartbeat { .. } => {
                if let Some(i) = self.holding(conn) {
                    self.leases[i].assignment = held;
                }
                Reply::Continue
            }
            FramePayload::LeaseDone {
                lease,
                epoch,
                samples,
                delta,
            } => match self.held_by(conn, lease, epoch) {
                // The merge comes last: it applies only when every other
                // rule holds, and applies nothing when it fails.
                Some(i)
                    if samples == self.leases[i].budget
                        && is_lease_delta(&delta, samples)
                        && self.merged.merge(&delta).is_ok() =>
                {
                    self.heard_from(i, held, now);
                    let l = &mut self.leases[i];
                    l.assignment = Assignment::Done;
                    l.samples = samples;
                    self.counts.done += 1;
                    Reply::Continue
                }
                // A foreign, stale or short completion, or a delta that
                // is not the honest one: nothing merged, exactly-once
                // holds.
                _ => Reply::Refuse,
            },
            // The exit that follows releases whatever the peer held.
            FramePayload::Goodbye { .. } => Reply::Close,
            // Coordinator-direction frames, a second hello, raw metrics
            // on the control port: protocol violations.
            _ => Reply::Refuse,
        };
        match reply {
            Reply::Refuse => self.counts.refused_frames += 1,
            _ => self.muted.retain(|&c| c != conn),
        }
        reply
    }

    /// Lease `i`'s holder was heard from: push its deadline out (`held`)
    /// and close any pending recovery measurement.
    fn heard_from(&mut self, i: usize, held: Assignment, now: Instant) {
        let l = &mut self.leases[i];
        l.assignment = held;
        if let Some(since) = l.pending_since.take() {
            let ms = now.saturating_duration_since(since).as_secs_f64() * 1_000.0;
            self.counts.recovery_ms.push(ms);
        }
    }

    /// Release every lease whose holder has been quiet past its
    /// deadline. The holder waits until it speaks again.
    pub(crate) fn expire(&mut self, now: Instant) {
        for i in 0..self.leases.len() {
            if let Assignment::Assigned { conn, deadline } = self.leases[i].assignment {
                if now > deadline {
                    self.counts.deadline_expirations += 1;
                    self.muted.push(conn);
                    self.release(i, now);
                }
            }
        }
    }

    /// Session `conn` ended, for any reason: release what it holds.
    pub(crate) fn exit(&mut self, conn: u64, now: Instant) {
        self.muted.retain(|&c| c != conn);
        if let Some(i) = self.holding(conn) {
            self.release(i, now);
        }
    }

    /// Back to the free pool. The epoch bump is the fence: anything the
    /// old holder sends later carries a stale epoch.
    fn release(&mut self, i: usize, now: Instant) {
        let l = &mut self.leases[i];
        l.epoch += 1;
        l.assignment = Assignment::Free;
        l.pending_since = Some(now);
        l.reassignments += 1;
        self.counts.failed |= l.reassignments > self.max_reassignments;
        self.counts.leases_reassigned += 1;
        self.counts.workers_presumed_dead += 1;
    }
}

/// Whether `delta` holds exactly the metrics and values of
/// `lease_delta(budget, 1)`. Help text is not compared: the merged
/// registry keeps its own.
fn is_lease_delta(delta: &MetricsRegistry, budget: u64) -> bool {
    let honest = lease_delta(budget, 1);
    delta.len() == honest.len()
        && honest
            .iter()
            .all(|(name, _, value)| delta.get(name) == Some(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qtaccel_telemetry::MetricValue;

    /// The merged counter of lease budgets.
    const SAMPLES: &str = "qtaccel_samples_total";

    const BUDGETS: [u64; 5] = [300, 300, 299, 299, 299];
    const SESSIONS: usize = 3;
    const HEARTBEAT: Duration = Duration::from_millis(100);

    fn table(max_reassignments: u64) -> LeaseTable {
        let cfg = CoordinatorConfig {
            heartbeat_timeout: HEARTBEAT,
            max_reassignments,
            ..CoordinatorConfig::default()
        };
        LeaseTable::new(BUDGETS.to_vec(), cfg)
    }

    /// The delta an honest worker reports for a lease of `samples`.
    fn honest(samples: u64) -> MetricsRegistry {
        lease_delta(samples, 1)
    }

    fn merged_samples(t: &LeaseTable) -> u64 {
        match t.merged.get(SAMPLES) {
            Some(MetricValue::Counter(v)) => *v,
            None => 0,
            other => panic!("{SAMPLES} mistyped: {other:?}"),
        }
    }

    fn holder(l: &Lease) -> Option<u64> {
        match l.assignment {
            Assignment::Assigned { conn, .. } => Some(conn),
            _ => None,
        }
    }

    /// One random event: `(kind, session slot, lease pick, epoch pick,
    /// delta pick, clock step in ms)`.
    type Event = (u8, usize, usize, u8, u8, u64);

    fn events() -> impl Strategy<Value = Vec<Event>> {
        prop::collection::vec(
            (
                0u8..8,
                0..SESSIONS,
                0..BUDGETS.len() + 3,
                0u8..4,
                0u8..7,
                0u64..250,
            ),
            1..160,
        )
    }

    /// Drives a table through events, checking every invariant after each.
    struct Sim {
        t: LeaseTable,
        now: Instant,
        sessions: [u64; SESSIONS],
        next_conn: u64,
        exited: Vec<u64>,
        /// Sessions whose lease expired and that have not spoken since.
        waiting: Vec<u64>,
    }

    impl Sim {
        /// A fresh table whose first lease one session completed
        /// honestly: an overflowing delta needs a merged count above
        /// zero to overflow against.
        fn new() -> Self {
            let mut sim = Sim {
                t: table(u64::MAX),
                now: Instant::now(),
                sessions: [1, 2, 3],
                next_conn: 4,
                exited: Vec::new(),
                waiting: Vec::new(),
            };
            let Handout::Assign {
                lease,
                epoch,
                budget,
            } = sim.t.assign(1, sim.now)
            else {
                panic!("a fresh table hands out lease 0");
            };
            let done = FramePayload::LeaseDone {
                lease,
                epoch,
                samples: budget,
                delta: honest(budget),
            };
            assert_eq!(sim.t.on_frame(1, done, sim.now), Reply::Continue);
            sim
        }

        fn step(&mut self, (kind, slot, pick, epoch_pick, delta_pick, ms): Event) {
            let conn = self.sessions[slot];
            let before = self.t.clone();
            // The lease a frame names: one of the table's, its own, or
            // one that does not exist.
            let lease = match pick {
                p if p < BUDGETS.len() => p,
                p if p == BUDGETS.len() => BUDGETS.len(),
                _ => before.holding(conn).unwrap_or(0),
            };
            let current = before.leases.get(lease).map_or(1, |l| l.epoch);
            let epoch = match epoch_pick {
                0 | 1 => current,
                2 => current.wrapping_sub(1),
                _ => current + 1,
            };
            let holds = before
                .leases
                .get(lease)
                .is_some_and(|l| l.epoch == epoch && holder(l) == Some(conn));
            let reply = match kind {
                0 | 1 => {
                    let handout = self.t.assign(conn, self.now);
                    let free = before
                        .leases
                        .iter()
                        .position(|l| l.assignment == Assignment::Free);
                    let expected = if before.holding(conn).is_some() {
                        Handout::Wait
                    } else if before.complete() {
                        Handout::Complete
                    } else if self.waiting.contains(&conn) {
                        Handout::Wait
                    } else if let Some(i) = free {
                        Handout::Assign {
                            lease: i as u64,
                            epoch: before.leases[i].epoch + 1,
                            budget: BUDGETS[i],
                        }
                    } else {
                        Handout::Wait
                    };
                    assert_eq!(handout, expected);
                    None
                }
                2 => {
                    let progress = FramePayload::Progress {
                        lease: lease as u64,
                        epoch,
                        samples: 7,
                    };
                    Some((self.t.on_frame(conn, progress, self.now), holds))
                }
                3 => {
                    let beat = FramePayload::Heartbeat { nonce: 1 };
                    Some((self.t.on_frame(conn, beat, self.now), true))
                }
                4 => {
                    self.t.exit(conn, self.now);
                    self.exited.push(conn);
                    self.waiting.retain(|&c| c != conn);
                    self.sessions[slot] = self.next_conn;
                    self.next_conn += 1;
                    None
                }
                5 | 6 => {
                    let budget = BUDGETS.get(lease).copied().unwrap_or(1);
                    let (samples, delta) = match delta_pick {
                        0 | 1 => (budget, honest(budget)),
                        // Short: consistent with itself, below budget.
                        2 => (budget - 1, honest(budget - 1)),
                        // Lying: the delta disagrees with the frame.
                        3 => (budget, honest(budget + 1)),
                        // Overflowing: completions pass u64::MAX.
                        4 => {
                            let mut d = honest(budget);
                            d.set_counter("qtaccel_lease_completions_total", "leases", u64::MAX);
                            (budget, d)
                        }
                        // Mistyped: completions as a gauge.
                        5 => {
                            let mut d = MetricsRegistry::new();
                            d.set_counter(SAMPLES, "samples", budget);
                            d.set_gauge("qtaccel_lease_completions_total", "leases", 1.0);
                            (budget, d)
                        }
                        // Inflated: merges now, overflows later merges.
                        _ => {
                            let mut d = honest(budget);
                            d.set_counter(
                                "qtaccel_lease_completions_total",
                                "leases",
                                u64::MAX - 1,
                            );
                            (budget, d)
                        }
                    };
                    let done = FramePayload::LeaseDone {
                        lease: lease as u64,
                        epoch,
                        samples,
                        delta,
                    };
                    Some((
                        self.t.on_frame(conn, done, self.now),
                        holds && delta_pick < 2,
                    ))
                }
                _ => {
                    self.now += Duration::from_millis(ms);
                    for l in &before.leases {
                        if let Assignment::Assigned { conn, deadline } = l.assignment {
                            if self.now > deadline {
                                self.waiting.push(conn);
                            }
                        }
                    }
                    self.t.expire(self.now);
                    None
                }
            };
            if let Some((reply, accepted)) = reply {
                if accepted {
                    assert_eq!(reply, Reply::Continue);
                    self.waiting.retain(|&c| c != conn);
                } else {
                    // A stale, foreign or malformed frame changes nothing
                    // but `refused_frames`.
                    assert_eq!(reply, Reply::Refuse);
                    let mut expected = before.clone();
                    expected.counts.refused_frames += 1;
                    assert_eq!(self.t, expected);
                }
            }
            self.check(&before);
        }

        fn check(&self, before: &LeaseTable) {
            let t = &self.t;
            for (i, (b, a)) in before.leases.iter().zip(&t.leases).enumerate() {
                // Epochs never decrease, and bump exactly on assignment
                // (Free → held) and release (held → Free).
                let bumps = match (b.assignment, a.assignment) {
                    (Assignment::Free, Assignment::Assigned { .. })
                    | (Assignment::Assigned { .. }, Assignment::Free) => 1,
                    (
                        Assignment::Assigned { conn: x, .. },
                        Assignment::Assigned { conn: y, .. },
                    ) if x == y => 0,
                    (Assignment::Assigned { .. }, Assignment::Done) => 0,
                    (x, y) if x == y => 0,
                    (x, y) => panic!("lease {i}: illegal transition {x:?} -> {y:?}"),
                };
                assert_eq!(a.epoch, b.epoch + bumps, "lease {i}");
                if let Some(conn) = holder(a) {
                    assert!(
                        !self.exited.contains(&conn),
                        "lease {i} held by exited {conn}"
                    );
                    assert!(
                        !self.waiting.contains(&conn),
                        "lease {i} held by expired {conn}"
                    );
                }
            }
            let mut waiting = self.waiting.clone();
            let mut muted = t.muted.clone();
            waiting.sort_unstable();
            muted.sort_unstable();
            assert_eq!(muted, waiting, "expired sessions wait until they speak");
            // Each lease merges at most once: the merged samples are
            // exactly the done leases' budgets.
            let done: Vec<u64> = t
                .leases
                .iter()
                .filter(|l| l.assignment == Assignment::Done)
                .map(|l| l.budget)
                .collect();
            assert_eq!(t.counts.done, done.len());
            assert_eq!(merged_samples(t), done.iter().sum::<u64>());
        }

        /// Every session leaves, then one honest session finishes the run.
        fn drain(&mut self) {
            for conn in self.sessions {
                self.t.exit(conn, self.now);
            }
            let conn = self.next_conn;
            loop {
                match self.t.assign(conn, self.now) {
                    Handout::Assign {
                        lease,
                        epoch,
                        budget,
                    } => {
                        let done = FramePayload::LeaseDone {
                            lease,
                            epoch,
                            samples: budget,
                            delta: honest(budget),
                        };
                        assert_eq!(self.t.on_frame(conn, done, self.now), Reply::Continue);
                    }
                    Handout::Complete => break,
                    other => panic!("drain stalled: {other:?}"),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn lease_table_keeps_every_invariant_after_every_event(history in events()) {
            let mut sim = Sim::new();
            for event in history {
                sim.step(event);
            }
        }

        #[test]
        fn lease_table_drains_to_the_exact_budget_after_any_history(history in events()) {
            let mut sim = Sim::new();
            for event in history {
                sim.step(event);
            }
            sim.drain();
            let status = sim.t.status();
            prop_assert!(status.complete && !status.failed);
            prop_assert_eq!(merged_samples(&sim.t), BUDGETS.iter().sum::<u64>());
        }
    }

    #[test]
    fn lease_table_refuses_a_mistyped_first_completion() {
        let mut t = table(1);
        let now = Instant::now();
        let Handout::Assign {
            lease,
            epoch,
            budget,
        } = t.assign(1, now)
        else {
            panic!("a fresh table hands out lease 0");
        };
        let mut mistyped = MetricsRegistry::new();
        mistyped.set_counter(SAMPLES, "samples", budget);
        mistyped.set_gauge("qtaccel_lease_completions_total", "leases", 1.0);
        let before = t.clone();
        let done = FramePayload::LeaseDone {
            lease,
            epoch,
            samples: budget,
            delta: mistyped,
        };
        assert_eq!(t.on_frame(1, done, now), Reply::Refuse);
        assert_eq!(t.counts.refused_frames, 1);
        t.counts.refused_frames = 0;
        assert_eq!(t, before, "nothing merged, the lease still held");
    }

    #[test]
    fn lease_table_refuses_an_inflated_completion_and_still_completes() {
        let mut t = table(u64::MAX);
        let now = Instant::now();
        let Handout::Assign {
            lease,
            epoch,
            budget,
        } = t.assign(1, now)
        else {
            panic!("a fresh table hands out lease 0");
        };
        // Honest samples, but a completions counter one merge away from
        // u64::MAX: accepted, it would make every later honest merge
        // but one overflow.
        let mut inflated = honest(budget);
        inflated.set_counter("qtaccel_lease_completions_total", "leases", u64::MAX - 1);
        let done = FramePayload::LeaseDone {
            lease,
            epoch,
            samples: budget,
            delta: inflated,
        };
        if t.on_frame(1, done, now) == Reply::Refuse {
            t.exit(1, now);
        }
        // Honest sessions finish the run; a refused one exits, as its
        // connection thread would.
        for conn in 2..12 {
            while let Handout::Assign {
                lease,
                epoch,
                budget,
            } = t.assign(conn, now)
            {
                let done = FramePayload::LeaseDone {
                    lease,
                    epoch,
                    samples: budget,
                    delta: honest(budget),
                };
                if t.on_frame(conn, done, now) == Reply::Refuse {
                    t.exit(conn, now);
                    break;
                }
            }
        }
        assert!(t.complete(), "{:?}", t.status());
        assert_eq!(merged_samples(&t), BUDGETS.iter().sum::<u64>());
    }

    #[test]
    fn lease_table_fails_the_run_past_the_reassignment_budget() {
        let mut t = table(2);
        let now = Instant::now();
        for conn in 1..=3 {
            assert!(matches!(
                t.assign(conn, now),
                Handout::Assign { lease: 0, .. }
            ));
            t.exit(conn, now);
        }
        let status = t.status();
        assert!(status.failed);
        assert_eq!((status.leases[0].0, status.leases_reassigned), (6, 3));
        assert_eq!(t.assign(4, now), Handout::Failed);
    }
}
