//! The cliff-walking task (Sutton & Barto, Example 6.6).
//!
//! Not part of the paper's evaluation, but the canonical scenario in which
//! the two algorithms QTAccel implements — off-policy Q-Learning and
//! on-policy SARSA — learn *different* policies: Q-Learning hugs the cliff
//! edge (optimal but risky under ε-greedy execution), SARSA detours around
//! it. The `sarsa_cliff` example uses this environment to demonstrate that
//! the accelerator engines reproduce the classical behaviour.

use crate::env::{Action, Environment, State};
use qtaccel_hdl::rng::RngSource;

/// A `width`×`height` grid with a cliff along the bottom row between the
/// start (bottom-left) and the goal (bottom-right).
///
/// Stepping into the cliff teleports the agent back to the start with a
/// large negative reward. States use the same packed (x, y) encoding as
/// [`crate::GridWorld`]; actions use the paper's 4-action encoding.
#[derive(Debug, Clone)]
pub struct CliffWalk {
    width: u32,
    height: u32,
    xbits: u32,
    ybits: u32,
    cliff_penalty: f64,
    step_reward: f64,
}

impl CliffWalk {
    /// The standard 12×4 cliff walk.
    pub fn standard() -> Self {
        Self::new(12, 4)
    }

    /// A `width`×`height` cliff walk (`width ≥ 3`, `height ≥ 2`).
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width >= 3, "cliff walk needs at least 3 columns");
        assert!(height >= 2, "cliff walk needs at least 2 rows");
        let xbits = 32 - (width - 1).leading_zeros();
        let ybits = 32 - (height - 1).leading_zeros();
        Self {
            width,
            height,
            xbits,
            ybits,
            cliff_penalty: -100.0,
            step_reward: -1.0,
        }
    }

    /// Override the cliff penalty (default −100).
    pub fn with_cliff_penalty(mut self, r: f64) -> Self {
        self.cliff_penalty = r;
        self
    }

    /// Pack (x, y).
    pub fn state_of(&self, x: u32, y: u32) -> State {
        (x << self.ybits) | y
    }

    /// Unpack.
    pub fn xy_of(&self, s: State) -> (u32, u32) {
        (s >> self.ybits, s & ((1 << self.ybits) - 1))
    }

    /// The fixed start cell (bottom-left).
    pub fn start_state(&self) -> State {
        self.state_of(0, self.height - 1)
    }

    /// The goal cell (bottom-right).
    pub fn goal_state(&self) -> State {
        self.state_of(self.width - 1, self.height - 1)
    }

    /// Is this cell part of the cliff?
    pub fn is_cliff(&self, s: State) -> bool {
        let (x, y) = self.xy_of(s);
        y == self.height - 1 && x > 0 && x < self.width - 1
    }

    fn in_grid(&self, s: State) -> bool {
        let (x, y) = self.xy_of(s);
        x < self.width && y < self.height
    }

    /// Does a greedy rollout of `policy` from the start reach the goal,
    /// and if so along which cells? Used to compare QL/SARSA paths.
    pub fn rollout(&self, policy: &[Action], max_steps: usize) -> Option<Vec<State>> {
        let mut s = self.start_state();
        let mut path = vec![s];
        for _ in 0..max_steps {
            s = self.transition(s, policy[s as usize]);
            path.push(s);
            if s == self.goal_state() {
                return Some(path);
            }
            if s == self.start_state() && path.len() > 1 {
                return None; // fell off the cliff
            }
        }
        None
    }
}

impl Environment for CliffWalk {
    #[inline]
    fn num_states(&self) -> usize {
        1usize << (self.xbits + self.ybits)
    }

    #[inline]
    fn num_actions(&self) -> usize {
        4
    }

    #[inline]
    fn transition(&self, s: State, a: Action) -> State {
        if !self.in_grid(s) || self.is_cliff(s) || s == self.goal_state() {
            return s;
        }
        let (x, y) = self.xy_of(s);
        let (dx, dy) = match a {
            0 => (-1i64, 0i64), // left
            1 => (0, -1),       // up
            2 => (1, 0),        // right
            3 => (0, 1),        // down
            _ => panic!("action {a} out of range"),
        };
        let nx = x as i64 + dx;
        let ny = y as i64 + dy;
        if nx < 0 || ny < 0 || nx >= self.width as i64 || ny >= self.height as i64 {
            return s;
        }
        let t = self.state_of(nx as u32, ny as u32);
        if self.is_cliff(t) {
            self.start_state() // fall: teleport to start
        } else {
            t
        }
    }

    #[inline]
    fn reward(&self, s: State, a: Action) -> f64 {
        if !self.in_grid(s) || self.is_cliff(s) || s == self.goal_state() {
            return 0.0;
        }
        let (x, y) = self.xy_of(s);
        let (dx, dy) = match a {
            0 => (-1i64, 0i64),
            1 => (0, -1),
            2 => (1, 0),
            3 => (0, 1),
            _ => panic!("action {a} out of range"),
        };
        let nx = x as i64 + dx;
        let ny = y as i64 + dy;
        if nx >= 0 && ny >= 0 && nx < self.width as i64 && ny < self.height as i64 {
            let t = self.state_of(nx as u32, ny as u32);
            if self.is_cliff(t) {
                return self.cliff_penalty;
            }
        }
        self.step_reward
    }

    #[inline]
    fn is_terminal(&self, s: State) -> bool {
        s == self.goal_state()
    }

    #[inline]
    fn is_valid_state(&self, s: State) -> bool {
        self.in_grid(s) && !self.is_cliff(s)
    }

    /// Episodes always restart at the fixed start cell — the defining
    /// feature of the cliff-walk task.
    fn random_start(&self, _rng: &mut dyn RngSource) -> State {
        self.start_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_hdl::lfsr::Lfsr32;

    #[test]
    fn geometry() {
        let c = CliffWalk::standard();
        assert_eq!(c.num_states(), 64); // 4 xbits + 2 ybits
        assert_eq!(c.start_state(), c.state_of(0, 3));
        assert_eq!(c.goal_state(), c.state_of(11, 3));
        assert!(c.is_cliff(c.state_of(5, 3)));
        assert!(!c.is_cliff(c.start_state()));
        assert!(!c.is_cliff(c.goal_state()));
        assert!(!c.is_cliff(c.state_of(5, 2)));
    }

    #[test]
    fn falling_teleports_to_start_with_penalty() {
        let c = CliffWalk::standard();
        let above_cliff = c.state_of(5, 2);
        assert_eq!(c.transition(above_cliff, 3), c.start_state());
        assert_eq!(c.reward(above_cliff, 3), -100.0);
        // Stepping right from start goes straight into the cliff.
        assert_eq!(c.transition(c.start_state(), 2), c.start_state());
        assert_eq!(c.reward(c.start_state(), 2), -100.0);
    }

    #[test]
    fn ordinary_moves_cost_one() {
        let c = CliffWalk::standard();
        let s = c.state_of(3, 1);
        assert_eq!(c.transition(s, 2), c.state_of(4, 1));
        assert_eq!(c.reward(s, 2), -1.0);
    }

    #[test]
    fn goal_is_terminal_and_absorbing() {
        let c = CliffWalk::standard();
        assert!(c.is_terminal(c.goal_state()));
        assert_eq!(c.transition(c.goal_state(), 1), c.goal_state());
    }

    #[test]
    fn fixed_start() {
        let c = CliffWalk::standard();
        let mut rng = Lfsr32::new(1);
        for _ in 0..10 {
            assert_eq!(c.random_start(&mut rng), c.start_state());
        }
    }

    #[test]
    fn edge_path_reaches_goal() {
        // The optimal (risky) policy: up from start, right along row 2,
        // then down into the goal.
        let c = CliffWalk::standard();
        let mut policy = vec![2u32; c.num_states()];
        policy[c.start_state() as usize] = 1; // up
        policy[c.state_of(11, 2) as usize] = 3; // down into goal
        let path = c.rollout(&policy, 20).expect("edge path must succeed");
        assert_eq!(path.len(), 14); // 1 up + 11 right + 1 down, +1 for start
    }

    #[test]
    fn rollout_detects_falls() {
        let c = CliffWalk::standard();
        // Everyone marches right: first move falls into the cliff.
        let policy = vec![2u32; c.num_states()];
        assert!(c.rollout(&policy, 50).is_none());
    }
}
