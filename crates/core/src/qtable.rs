//! The Q-table and the Qmax array.

use qtaccel_envs::{sa_index, Action, State};
use qtaccel_fixed::QValue;

/// How the "max over next-state actions" is obtained.
///
/// The paper's §V-A optimization replaces the |A|-wide scan of the
/// Q-table row with a single read of a per-state maximum array, updated
/// monotonically on writeback. The two semantics differ when a Q-value
/// *decreases*: the array then over-estimates the true row maximum until
/// another update overtakes it. The `ablation_qmax` experiment quantifies
/// the (empirically negligible) effect on convergence; the equivalence
/// tests require the golden reference to use the same mode as the
/// hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaxMode {
    /// Hardware semantics: single-read Qmax array with monotone updates.
    #[default]
    QmaxArray,
    /// Textbook semantics: scan the row for the exact maximum.
    ExactScan,
}

/// Dense `|S| × |A|` Q-table in datapath format `V`, zero-initialized
/// ("We start with empty Q-table", §IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct QTable<V> {
    values: Vec<V>,
    num_states: usize,
    num_actions: usize,
}

impl<V: QValue> QTable<V> {
    /// A zeroed `|S| × |A|` table.
    pub fn new(num_states: usize, num_actions: usize) -> Self {
        assert!(num_states > 0 && num_actions > 0, "table must be non-empty");
        Self {
            values: vec![V::zero(); num_states * num_actions],
            num_states,
            num_actions,
        }
    }

    /// Number of states (rows).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of actions (columns).
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Q-value for (s, a).
    #[inline]
    pub fn get(&self, s: State, a: Action) -> V {
        self.values[sa_index(s, a, self.num_actions)]
    }

    /// Overwrite the Q-value for (s, a).
    #[inline]
    pub fn set(&mut self, s: State, a: Action, v: V) {
        self.values[sa_index(s, a, self.num_actions)] = v;
    }

    /// The row of Q-values for state `s`.
    #[inline]
    pub fn row(&self, s: State) -> &[V] {
        let base = s as usize * self.num_actions;
        &self.values[base..base + self.num_actions]
    }

    /// Exact row maximum: `(argmax action, max value)`. Ties resolve to
    /// the lowest action index, matching a left-to-right hardware
    /// comparator tree.
    pub fn max_exact(&self, s: State) -> (Action, V) {
        let row = self.row(s);
        let mut best_a = 0usize;
        for (a, v) in row.iter().enumerate().skip(1) {
            if v.vcmp(row[best_a]) == core::cmp::Ordering::Greater {
                best_a = a;
            }
        }
        (best_a as Action, row[best_a])
    }

    /// Greedy policy extraction: exact argmax per state.
    pub fn greedy_policy(&self) -> Vec<Action> {
        (0..self.num_states as State)
            .map(|s| self.max_exact(s).0)
            .collect()
    }

    /// The raw table, state-major.
    pub fn as_slice(&self) -> &[V] {
        &self.values
    }

    /// Largest absolute elementwise difference to another table, in f64 —
    /// the convergence and equivalence metric.
    pub fn max_abs_diff(&self, other: &QTable<V>) -> f64 {
        assert_eq!(self.values.len(), other.values.len(), "shape mismatch");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// BRAM bits needed to store this table at the datapath width.
    pub fn capacity_bits(&self) -> u64 {
        self.values.len() as u64 * V::storage_bits() as u64
    }
}

/// The per-state maximum array of §V-A.
///
/// Each entry stores the running maximum Q-value for a state *and the
/// action that produced it* — the action is required by SARSA, which must
/// forward the greedily selected action to the next iteration, not just
/// its value.
#[derive(Debug, Clone, PartialEq)]
pub struct QmaxTable<V> {
    entries: Vec<(V, Action)>,
}

impl<V: QValue> QmaxTable<V> {
    /// Zeroed array (consistent with the zeroed Q-table: max of a zero row
    /// is zero, achieved by action 0).
    pub fn new(num_states: usize) -> Self {
        assert!(num_states > 0);
        Self {
            entries: vec![(V::zero(), 0); num_states],
        }
    }

    /// Number of states covered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the array is empty (never, for a valid construction).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(max value, argmax action)` for state `s` — the single BRAM read
    /// that replaces the |A|-wide scan.
    #[inline]
    pub fn get(&self, s: State) -> (V, Action) {
        let (v, a) = self.entries[s as usize];
        (v, a)
    }

    /// The stage-4 monotone update: "an update is made to the Qmax if the
    /// new Q-value is higher than the current value in the Qmax array for
    /// the state". Returns true if the entry changed.
    #[inline]
    pub fn update_monotone(&mut self, s: State, a: Action, v: V) -> bool {
        let cur = self.entries[s as usize];
        if v.vcmp(cur.0) == core::cmp::Ordering::Greater {
            self.entries[s as usize] = (v, a);
            true
        } else {
            false
        }
    }

    /// Randomize the *action* fields (values stay zero) — the memory
    /// initialization the SARSA engine needs: with every entry tied to
    /// action 0, an ε-greedy agent's exploit step always walks the same
    /// direction and (for small ε) the biased walk never finds the goal,
    /// so no Q-value ever turns positive and the Qmax array never
    /// updates. Random initial actions make the initial exploit policy a
    /// frozen random walk, which bootstraps exactly like textbook
    /// random-tie-breaking SARSA. In hardware this is one line in the
    /// BRAM init file.
    pub fn randomize_actions(
        &mut self,
        num_actions: u32,
        rng: &mut dyn qtaccel_hdl::rng::RngSource,
    ) {
        for e in &mut self.entries {
            e.1 = rng.below(num_actions);
        }
    }

    /// Host-side exact rebuild from a Q-table (what a maintenance scan
    /// would produce; used by the ablation and by tests).
    pub fn rebuild_exact(&mut self, q: &QTable<V>) {
        assert_eq!(self.entries.len(), q.num_states());
        for s in 0..q.num_states() as State {
            let (a, v) = q.max_exact(s);
            self.entries[s as usize] = (v, a);
        }
    }

    /// Backdoor write, mirroring BRAM initialization.
    pub fn poke(&mut self, s: State, v: V, a: Action) {
        self.entries[s as usize] = (v, a);
    }

    /// BRAM bits at datapath width plus the action field.
    pub fn capacity_bits(&self, action_bits: u32) -> u64 {
        self.entries.len() as u64 * (V::storage_bits() + action_bits) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_fixed::Q8_8;

    #[test]
    fn table_starts_zeroed() {
        let q = QTable::<f64>::new(4, 2);
        for s in 0..4 {
            for a in 0..2 {
                assert_eq!(q.get(s, a), 0.0);
            }
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let mut q = QTable::<f64>::new(4, 3);
        q.set(2, 1, 5.5);
        assert_eq!(q.get(2, 1), 5.5);
        assert_eq!(q.row(2), &[0.0, 5.5, 0.0]);
    }

    #[test]
    fn max_exact_ties_to_lowest_action() {
        let mut q = QTable::<f64>::new(2, 4);
        q.set(0, 1, 3.0);
        q.set(0, 3, 3.0);
        assert_eq!(q.max_exact(0), (1, 3.0));
        // All-zero row: action 0.
        assert_eq!(q.max_exact(1), (0, 0.0));
    }

    #[test]
    fn greedy_policy_extraction() {
        let mut q = QTable::<f64>::new(3, 2);
        q.set(0, 1, 1.0);
        q.set(2, 0, -0.5);
        q.set(2, 1, -0.25);
        assert_eq!(q.greedy_policy(), vec![1, 0, 1]);
    }

    #[test]
    fn max_abs_diff() {
        let mut a = QTable::<f64>::new(2, 2);
        let mut b = QTable::<f64>::new(2, 2);
        a.set(0, 0, 1.0);
        b.set(0, 0, 1.5);
        b.set(1, 1, -0.2);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn qmax_monotone_update() {
        let mut m = QmaxTable::<f64>::new(2);
        assert_eq!(m.get(0), (0.0, 0));
        assert!(m.update_monotone(0, 2, 1.5));
        assert_eq!(m.get(0), (1.5, 2));
        // Lower value does not displace the entry.
        assert!(!m.update_monotone(0, 1, 1.0));
        assert_eq!(m.get(0), (1.5, 2));
        // Equal value does not displace either (strictly higher only).
        assert!(!m.update_monotone(0, 3, 1.5));
        assert_eq!(m.get(0).1, 2);
    }

    #[test]
    fn qmax_goes_stale_when_values_decrease() {
        // The documented approximation: decreasing the argmax entry leaves
        // Qmax over-estimating.
        let mut q = QTable::<f64>::new(1, 2);
        let mut m = QmaxTable::<f64>::new(1);
        q.set(0, 0, 2.0);
        m.update_monotone(0, 0, 2.0);
        q.set(0, 0, 0.5); // true max now 0.5
        m.update_monotone(0, 0, 0.5); // monotone: no change
        assert_eq!(m.get(0).0, 2.0, "stale upper bound");
        assert_eq!(q.max_exact(0).1, 0.5);
        m.rebuild_exact(&q);
        assert_eq!(m.get(0), (0.5, 0));
    }

    #[test]
    fn qmax_is_always_upper_bound_under_monotone_updates() {
        // Invariant: after any interleaving of set+update_monotone with
        // the same (s, a, v), qmax >= true row max.
        let mut q = QTable::<Q8_8>::new(4, 4);
        let mut m = QmaxTable::<Q8_8>::new(4);
        let mut lfsr = qtaccel_hdl::lfsr::Lfsr32::new(99);
        use qtaccel_hdl::rng::RngSource;
        for _ in 0..1000 {
            let s = lfsr.below(4);
            let a = lfsr.below(4);
            let v = Q8_8::from_f64(lfsr.next_f64() * 20.0 - 10.0);
            q.set(s, a, v);
            m.update_monotone(s, a, v);
        }
        for s in 0..4 {
            let (_, true_max) = q.max_exact(s);
            assert!(m.get(s).0 >= true_max, "state {s}");
        }
    }

    #[test]
    fn capacity_accounting() {
        let q = QTable::<Q8_8>::new(256, 8);
        assert_eq!(q.capacity_bits(), 256 * 8 * 16);
        let m = QmaxTable::<Q8_8>::new(256);
        assert_eq!(m.capacity_bits(3), 256 * 19);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_table_rejected() {
        QTable::<f64>::new(0, 4);
    }
}
