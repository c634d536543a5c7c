//! The [`Environment`] trait — the hardware's view of the world.

use qtaccel_hdl::rng::RngSource;

/// A state index. States address the Q-table directly, so they are plain
/// integers; structured state (grid coordinates) is packed into the bits,
/// exactly as the paper packs (x, y) into the BRAM address.
pub type State = u32;

/// An action index, `0 .. num_actions`.
pub type Action = u32;

/// Row-major index of a state-action pair in a dense `|S|·|A|` table —
/// the BRAM address computation (`addr = s·|A| + a`, a shift when `|A|`
/// is a power of two).
#[inline]
pub fn sa_index(s: State, a: Action, num_actions: usize) -> usize {
    s as usize * num_actions + a as usize
}

/// The environment contract the accelerator is built against.
///
/// Matches the paper's device model (§IV-A): the transition function is
/// deterministic combinational logic; rewards live in a table addressed by
/// (state, action); terminal detection restarts the episode at a random
/// state. All methods take `&self` — the environment is immutable during
/// training, as a synthesized circuit would be.
pub trait Environment {
    /// Number of addressable states (the Q-table height). Includes any
    /// unreachable filler states implied by bit packing, because the
    /// hardware's address space includes them too.
    fn num_states(&self) -> usize;

    /// Number of actions (the Q-table width).
    fn num_actions(&self) -> usize;

    /// Deterministic next state for (s, a) — the combinational transition
    /// module.
    fn transition(&self, s: State, a: Action) -> State;

    /// Reward for *taking* action `a` in state `s` — the reward BRAM entry
    /// at `sa_index(s, a)`.
    fn reward(&self, s: State, a: Action) -> f64;

    /// Does reaching `s` end the episode? (The pipeline then restarts from
    /// a random start state.)
    fn is_terminal(&self, s: State) -> bool;

    /// Standard deviation of the normal noise on R(s, a) (§VII-B's
    /// bandits); 0, the default, for a deterministic reward table. An
    /// engine with a noisy reward unit adds that much noise to each read.
    fn reward_std(&self, _s: State, _a: Action) -> f64 {
        0.0
    }

    /// The next state for (s, a) from a transition unit drawing from
    /// `rng`: [`transition`](Self::transition), drawing nothing, unless
    /// the transitions are stochastic (a stateful bandit's arm chains).
    fn draw_transition(&self, s: State, a: Action, _rng: &mut dyn RngSource) -> State {
        self.transition(s, a)
    }

    /// Is `s` a legal place to *be* (reachable, not an obstacle, not
    /// outside the geometric grid)? Used to filter random starts.
    fn is_valid_state(&self, s: State) -> bool {
        (s as usize) < self.num_states()
    }

    /// Draw a uniformly random valid non-terminal start state, the way the
    /// hardware's LFSR-driven start selector does (§IV-B step i).
    fn random_start(&self, rng: &mut dyn RngSource) -> State {
        debug_assert!(self.num_states() > 0);
        // Rejection sampling over the packed address space; every provided
        // environment has ≥ 1/4 of its address space valid so this
        // terminates quickly (and the hardware does the same re-draw).
        loop {
            let s = rng.below(self.num_states() as u32);
            if self.is_valid_state(s) && !self.is_terminal(s) {
                return s;
            }
        }
    }

    /// All (state, action) pair count — table sizing shorthand.
    fn num_pairs(&self) -> usize {
        self.num_states() * self.num_actions()
    }
}

/// Blanket impl so `&E` is itself an environment (lets trainers borrow).
impl<E: Environment + ?Sized> Environment for &E {
    fn num_states(&self) -> usize {
        (**self).num_states()
    }
    fn num_actions(&self) -> usize {
        (**self).num_actions()
    }
    fn transition(&self, s: State, a: Action) -> State {
        (**self).transition(s, a)
    }
    fn reward(&self, s: State, a: Action) -> f64 {
        (**self).reward(s, a)
    }
    fn is_terminal(&self, s: State) -> bool {
        (**self).is_terminal(s)
    }
    fn reward_std(&self, s: State, a: Action) -> f64 {
        (**self).reward_std(s, a)
    }
    fn draw_transition(&self, s: State, a: Action, rng: &mut dyn RngSource) -> State {
        (**self).draw_transition(s, a, rng)
    }
    fn is_valid_state(&self, s: State) -> bool {
        (**self).is_valid_state(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_hdl::lfsr::Lfsr32;

    /// A 4-state ring with one terminal state, for trait-level tests.
    struct Ring;

    impl Environment for Ring {
        fn num_states(&self) -> usize {
            4
        }
        fn num_actions(&self) -> usize {
            2
        }
        fn transition(&self, s: State, a: Action) -> State {
            match a {
                0 => (s + 1) % 4,
                _ => (s + 3) % 4,
            }
        }
        fn reward(&self, s: State, a: Action) -> f64 {
            if self.transition(s, a) == 3 {
                1.0
            } else {
                0.0
            }
        }
        fn is_terminal(&self, s: State) -> bool {
            s == 3
        }
    }

    #[test]
    fn sa_index_is_row_major() {
        assert_eq!(sa_index(0, 0, 4), 0);
        assert_eq!(sa_index(0, 3, 4), 3);
        assert_eq!(sa_index(2, 1, 4), 9);
    }

    #[test]
    fn random_start_avoids_terminal() {
        let mut rng = Lfsr32::new(7);
        let env = Ring;
        for _ in 0..100 {
            let s = env.random_start(&mut rng);
            assert!(s < 4);
            assert_ne!(s, 3, "terminal state drawn as start");
        }
    }

    #[test]
    fn random_start_covers_valid_states() {
        let mut rng = Lfsr32::new(11);
        let env = Ring;
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[env.random_start(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true, true, true, false]);
    }

    #[test]
    fn reference_env_delegates() {
        let env = Ring;
        let r = &env;
        assert_eq!(r.num_states(), 4);
        assert_eq!(r.transition(1, 0), 2);
        assert_eq!(r.num_pairs(), 8);
    }
}
