//! Dense reward-table precomputation — the reward BRAM's initial contents.
//!
//! §IV-B resource (i): the accelerator stores "the Q values and reward
//! values for all state-action pairs" in two `|S|·|A|`-sized BRAM tables.
//! [`RewardTable`] materializes an [`crate::Environment`]'s reward function
//! into that dense layout, quantized to the datapath format — the software
//! equivalent of the memory-initialization file the synthesis flow loads.
//!
//! Every dense image of a reward function converts through one
//! [`RewardMemo`], which converts each distinct reward value once: a
//! grid world's `|S|·|A|` cells hold a handful of distinct rewards, so
//! the per-cell cost is the environment call, not the format conversion.

use crate::env::{sa_index, Action, Environment, State};
use qtaccel_fixed::QValue;

/// Distinct rewards a [`RewardMemo`] remembers. Past this many, a value
/// not among them converts on every use: the result is the same, only
/// slower.
const DISTINCT: usize = 8;

/// Converts reward values through `convert`, once per distinct value.
/// Values are told apart by their `f64` bits, so `-0.0` and `+0.0`, and
/// NaNs with different payloads, each convert on their own: every result
/// equals calling `convert` on the value, bit for bit.
pub struct RewardMemo<R, F> {
    convert: F,
    /// Each distinct value converted so far, first seen first, keyed on
    /// its bits.
    seen: Vec<(u64, R)>,
    /// The entry the last lookup returned: a sweep meets runs of equal
    /// rewards, so most lookups stop at one compare.
    last: usize,
}

impl<R: Copy, F: FnMut(f64) -> R> RewardMemo<R, F> {
    /// A memo with nothing converted yet.
    pub fn new(convert: F) -> Self {
        Self {
            convert,
            seen: Vec::with_capacity(DISTINCT),
            last: 0,
        }
    }

    /// `convert(r)`, computed on the first use of `r`'s bits.
    #[inline]
    pub fn get(&mut self, r: f64) -> R {
        match self.seen.get(self.last) {
            Some(&(bits, v)) if bits == r.to_bits() => v,
            _ => self.find_or_convert(r),
        }
    }

    #[inline(never)]
    fn find_or_convert(&mut self, r: f64) -> R {
        let bits = r.to_bits();
        if let Some(i) = self.seen.iter().position(|&(k, _)| k == bits) {
            self.last = i;
            return self.seen[i].1;
        }
        let v = (self.convert)(r);
        if self.seen.len() < DISTINCT {
            self.last = self.seen.len();
            self.seen.push((bits, v));
        }
        v
    }
}

/// A dense `|S|·|A|` reward table in datapath format `V`.
#[derive(Debug, Clone)]
pub struct RewardTable<V> {
    values: Vec<V>,
    num_actions: usize,
}

impl<V: QValue> RewardTable<V> {
    /// Materialize the environment's reward function.
    pub fn from_env<E: Environment>(env: &E) -> Self {
        Self::from_env_with(env, |v| v)
    }

    /// Materialize the environment's reward function with every entry
    /// passed through `snap` after the format conversion — a stored
    /// format's `round_nearest`, say, which puts the reward ROM on that
    /// format's grid so the reference trainer, the cycle-accurate pipeline
    /// and the packed fast path all read bit-identical (on-grid) rewards.
    pub fn from_env_with<E: Environment>(env: &E, snap: impl Fn(V) -> V) -> Self {
        let mut memo = RewardMemo::new(|r| snap(V::from_f64(r)));
        let mut values = Vec::with_capacity(env.num_pairs());
        for s in 0..env.num_states() as State {
            for a in 0..env.num_actions() as Action {
                values.push(memo.get(env.reward(s, a)));
            }
        }
        Self {
            values,
            num_actions: env.num_actions(),
        }
    }

    /// Reward for (s, a).
    #[inline]
    pub fn get(&self, s: u32, a: u32) -> V {
        self.values[sa_index(s, a, self.num_actions)]
    }

    /// Number of entries (`|S|·|A|`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the table is empty (it never is for a valid environment).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw table in row-major (state-major) order.
    pub fn as_slice(&self) -> &[V] {
        &self.values
    }

    /// Capacity in bits when stored at this format's width.
    pub fn capacity_bits(&self) -> u64 {
        self.values.len() as u64 * V::storage_bits() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridworld::GridWorld;
    use qtaccel_fixed::Q8_8;

    #[test]
    fn table_matches_env() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let t = RewardTable::<f64>::from_env(&g);
        assert_eq!(t.len(), g.num_states() * g.num_actions());
        for s in 0..g.num_states() as u32 {
            for a in 0..g.num_actions() as u32 {
                assert_eq!(t.get(s, a), g.reward(s, a));
            }
        }
    }

    #[test]
    fn fixed_format_quantizes() {
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .step_reward(-0.01)
            .build();
        let t = RewardTable::<Q8_8>::from_env(&g);
        // -0.01 is not representable in Q8.8; nearest is -3/256 ≈ -0.0117
        // or -2/256; either way within half an epsilon.
        let got = t.get(g.state_of(1, 1), 2).to_f64();
        assert!((got - (-0.01)).abs() <= 0.5 / 256.0 + 1e-12, "{got}");
        assert_eq!(t.capacity_bits(), t.len() as u64 * 16);
    }
}
