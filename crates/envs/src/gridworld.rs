//! The grid-world robotics environment of §VI-A.
//!
//! "The environment is a grid of cells and the agent is the robot which
//! starts at one of the cells and its aim is to reach a goal cell while
//! avoiding obstacles (unreachable cells) and walls. Under this setting,
//! the states represent the cells and the actions represent the moves of
//! the robot."
//!
//! State encoding follows §VI-B exactly: the state address packs the x
//! coordinate in the most significant bits and the y coordinate in the
//! least significant bits ("when there are 256 total possible states, the
//! address of the state is an 8-bit binary value where the most
//! significant 4 bits represents the x-coordinate and the least
//! significant 4 bits represent the y-coordinate"). For non-power-of-two
//! grid dimensions the packed address space is larger than the cell count;
//! the filler addresses exist in the Q-table (as they would in the BRAM)
//! but are never visited.
//!
//! The transition module is combinational logic over a fixed grid, so
//! [`GridWorldBuilder::build`] computes it once: one legal-move byte per
//! packed state (bit *a* set when action *a* moves a live cell into a
//! free one) and one packed-address offset per action. A transition is
//! then a byte load, a bit test and an add. Obstacles are kept as one
//! bit per packed state.

use crate::env::{Action, Environment, State};
use qtaccel_hdl::rng::RngSource;
use std::collections::HashSet;
use std::collections::VecDeque;

/// Which move set the robot has (§VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ActionSet {
    /// 4 actions: `00` left, `01` up, `10` right, `11` down.
    #[default]
    Four,
    /// 8 actions, 3-bit encoding clockwise from left: `000` left, `001`
    /// top-left, `010` up, `011` top-right, `100` right, `101`
    /// bottom-right, `110` down, `111` bottom-left.
    Eight,
}

impl ActionSet {
    /// Number of actions in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ActionSet::Four => 4,
            ActionSet::Eight => 8,
        }
    }

    /// Always false — both sets are non-empty (clippy convention).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// (dx, dy) displacement for an action. `y` grows downward, so "up"
    /// is `dy = -1`.
    #[inline]
    pub fn delta(&self, a: Action) -> (i64, i64) {
        match self {
            ActionSet::Four => match a {
                0 => (-1, 0), // left
                1 => (0, -1), // up
                2 => (1, 0),  // right
                3 => (0, 1),  // down
                _ => panic!("action {a} out of range for 4-action set"),
            },
            ActionSet::Eight => match a {
                0 => (-1, 0),  // left
                1 => (-1, -1), // top-left
                2 => (0, -1),  // up
                3 => (1, -1),  // top-right
                4 => (1, 0),   // right
                5 => (1, 1),   // bottom-right
                6 => (0, 1),   // down
                7 => (-1, 1),  // bottom-left
                _ => panic!("action {a} out of range for 8-action set"),
            },
        }
    }

    /// A glyph per action, for policy rendering.
    pub fn glyph(&self, a: Action) -> char {
        match self {
            ActionSet::Four => ['<', '^', '>', 'v'][a as usize],
            ActionSet::Eight => ['<', '\\', '^', '/', '>', '\\', 'v', '/'][a as usize],
        }
    }
}

/// Builder for [`GridWorld`]; see [`GridWorld::builder`].
#[derive(Debug, Clone)]
pub struct GridWorldBuilder {
    width: u32,
    height: u32,
    goal: Option<(u32, u32)>,
    obstacles: HashSet<(u32, u32)>,
    actions: ActionSet,
    goal_reward: f64,
    wall_penalty: f64,
    step_reward: f64,
}

impl GridWorldBuilder {
    /// Place the goal cell. Exactly one goal is required.
    pub fn goal(mut self, x: u32, y: u32) -> Self {
        self.goal = Some((x, y));
        self
    }

    /// Mark a cell as an obstacle (unreachable cell the robot bounces off).
    pub fn obstacle(mut self, x: u32, y: u32) -> Self {
        self.obstacles.insert((x, y));
        self
    }

    /// Mark many obstacle cells at once.
    pub fn obstacles<I: IntoIterator<Item = (u32, u32)>>(mut self, cells: I) -> Self {
        self.obstacles.extend(cells);
        self
    }

    /// Choose the move set (default: four actions).
    pub fn actions(mut self, set: ActionSet) -> Self {
        self.actions = set;
        self
    }

    /// Reward for a move that reaches the goal (default `+1.0`; the paper's
    /// example table uses `+255`, which needs a wide datapath format).
    pub fn goal_reward(mut self, r: f64) -> Self {
        self.goal_reward = r;
        self
    }

    /// Reward (typically negative) for a move blocked by a wall or
    /// obstacle (default `-1.0`).
    pub fn wall_penalty(mut self, r: f64) -> Self {
        self.wall_penalty = r;
        self
    }

    /// Reward for an ordinary move (default `0.0`, matching the paper's
    /// reward table, where only the goal and wall/obstacle hits carry
    /// reward — the discount factor γ already prefers shorter paths).
    ///
    /// Note for hardware-mode training (`MaxMode::QmaxArray`): the Qmax
    /// array is zero-initialized and only ever *increases*, so a reward
    /// scheme in which optimal Q-values are negative (e.g. a per-step
    /// cost with no positive goal reward reachable) leaves the greedy
    /// action selector stuck at action 0 forever. The paper's convention
    /// (positive goal reward, zero step cost) avoids this; keep it unless
    /// you also switch to `MaxMode::ExactScan`.
    pub fn step_reward(mut self, r: f64) -> Self {
        self.step_reward = r;
        self
    }

    /// Validate and construct the environment.
    ///
    /// # Panics
    /// If dimensions are < 2, the goal is missing/out of bounds/on an
    /// obstacle, or an obstacle is out of bounds.
    pub fn build(self) -> GridWorld {
        assert!(
            self.width >= 2 && self.height >= 2,
            "grid must be at least 2x2"
        );
        let goal = self.goal.expect("grid world needs a goal cell");
        assert!(
            goal.0 < self.width && goal.1 < self.height,
            "goal {goal:?} outside {}x{} grid",
            self.width,
            self.height
        );
        assert!(
            !self.obstacles.contains(&goal),
            "goal cell cannot be an obstacle"
        );
        for &(x, y) in &self.obstacles {
            assert!(
                x < self.width && y < self.height,
                "obstacle ({x},{y}) outside grid"
            );
        }
        let xbits = bits_for(self.width);
        let ybits = bits_for(self.height);
        let num_states = 1usize << (xbits + ybits);
        let goal_state = (goal.0 << ybits) | goal.1;
        let mut legal = vec![0u8; num_states];
        let mut offsets = [0; 8];
        let (w, h) = (i64::from(self.width), i64::from(self.height));
        for a in 0..self.actions.len() as Action {
            let (dx, dy) = self.actions.delta(a);
            offsets[a as usize] = ((dx << ybits) + dy) as u32;
            // Each column's cells whose neighbour along (dx, dy) is in
            // the grid form one contiguous y range of the packing.
            let (y0, n) = (0.max(-dy), (h - dy.abs()) as usize);
            for x in 0.max(-dx)..w - 0.max(dx) {
                let from = ((x as usize) << ybits) + y0 as usize;
                for m in &mut legal[from..from + n] {
                    *m |= 1 << a;
                }
            }
        }
        // An obstacle blocks every move into it, and obstacles and the
        // goal self-loop, as filler addresses do.
        let mut obstacles = vec![0u64; num_states.div_ceil(64)];
        for &(x, y) in &self.obstacles {
            let o = ((x << ybits) | y) as usize;
            obstacles[o / 64] |= 1 << (o % 64);
            legal[o] = 0;
            for a in 0..self.actions.len() as Action {
                let (dx, dy) = self.actions.delta(a);
                let (px, py) = (i64::from(x) - dx, i64::from(y) - dy);
                if (0..w).contains(&px) && (0..h).contains(&py) {
                    legal[((px as usize) << ybits) | py as usize] &= !(1 << a);
                }
            }
        }
        legal[goal_state as usize] = 0;
        GridWorld {
            width: self.width,
            height: self.height,
            xbits,
            ybits,
            goal_state,
            obstacles,
            legal,
            offsets,
            actions: self.actions,
            goal_reward: self.goal_reward,
            wall_penalty: self.wall_penalty,
            step_reward: self.step_reward,
        }
    }
}

/// Number of address bits for a coordinate in `0..n`.
fn bits_for(n: u32) -> u32 {
    debug_assert!(n >= 2);
    32 - (n - 1).leading_zeros()
}

/// The grid-world environment (see module docs).
#[derive(Debug, Clone)]
pub struct GridWorld {
    width: u32,
    height: u32,
    xbits: u32,
    ybits: u32,
    goal_state: State,
    /// One bit per packed state, set for obstacles: bit `s % 64` of
    /// word `s / 64`.
    obstacles: Vec<u64>,
    /// One byte per packed state: bit `a` is set when action `a` moves
    /// this live cell into a free one. Zero for obstacles, the goal and
    /// filler addresses.
    legal: Vec<u8>,
    /// Per action, the packed-address change of a legal move (wrapping).
    offsets: [u32; 8],
    actions: ActionSet,
    goal_reward: f64,
    wall_penalty: f64,
    step_reward: f64,
}

impl GridWorld {
    /// Start building a `width`×`height` grid.
    pub fn builder(width: u32, height: u32) -> GridWorldBuilder {
        GridWorldBuilder {
            width,
            height,
            goal: None,
            obstacles: HashSet::new(),
            actions: ActionSet::Four,
            goal_reward: 1.0,
            wall_penalty: -1.0,
            step_reward: 0.0,
        }
    }

    /// A random grid with ~`obstacle_pct` percent obstacle cells and the
    /// goal in a free cell, re-drawn until at least half the free cells
    /// can reach the goal. Used heavily by the property tests.
    pub fn random(
        width: u32,
        height: u32,
        obstacle_pct: u32,
        actions: ActionSet,
        rng: &mut dyn RngSource,
    ) -> GridWorld {
        assert!(
            obstacle_pct < 50,
            "obstacle density too high to stay solvable"
        );
        loop {
            let mut b = GridWorld::builder(width, height).actions(actions);
            let mut free = Vec::new();
            for x in 0..width {
                for y in 0..height {
                    if rng.below(100) < obstacle_pct {
                        b = b.obstacle(x, y);
                    } else {
                        free.push((x, y));
                    }
                }
            }
            if free.is_empty() {
                continue;
            }
            let (gx, gy) = free[rng.below(free.len() as u32) as usize];
            let world = b.goal(gx, gy).build();
            let reachable = world
                .shortest_distances()
                .iter()
                .filter(|d| d.is_some())
                .count();
            if reachable * 2 >= free.len() {
                return world;
            }
        }
    }

    /// Grid width (cells in x).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height (cells in y).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The move set in use.
    pub fn action_set(&self) -> ActionSet {
        self.actions
    }

    /// The goal cell's packed state.
    pub fn goal_state(&self) -> State {
        self.goal_state
    }

    /// Pack (x, y) into a state address (§VI-B bit layout).
    #[inline]
    pub fn state_of(&self, x: u32, y: u32) -> State {
        debug_assert!(x < self.width && y < self.height);
        (x << self.ybits) | y
    }

    /// Unpack a state address into (x, y).
    #[inline]
    pub fn xy_of(&self, s: State) -> (u32, u32) {
        (s >> self.ybits, s & ((1 << self.ybits) - 1))
    }

    /// Is the packed address a real cell (inside the geometric grid)?
    #[inline]
    pub fn in_grid(&self, s: State) -> bool {
        let (x, y) = self.xy_of(s);
        x < self.width && y < self.height
    }

    /// Is this cell an obstacle? Never for filler addresses or
    /// addresses past the packed space.
    #[inline]
    pub fn is_obstacle(&self, s: State) -> bool {
        let s = s as usize;
        self.obstacles
            .get(s / 64)
            .is_some_and(|word| (word >> (s % 64)) & 1 != 0)
    }

    /// BFS distance (in moves) from every cell to the goal; `None` for
    /// unreachable cells, obstacles and filler addresses. Gives the
    /// optimal value function's support, used to verify learned policies.
    pub fn shortest_distances(&self) -> Vec<Option<u32>> {
        let n = self.num_states();
        let mut dist = vec![None; n];
        let mut queue = VecDeque::new();
        dist[self.goal_state as usize] = Some(0);
        queue.push_back(self.goal_state);
        while let Some(s) = queue.pop_front() {
            let d = dist[s as usize].unwrap();
            // Predecessors: any valid cell that moves to s in one action.
            for a in 0..self.num_actions() as Action {
                let (dx, dy) = self.actions.delta(a);
                let (x, y) = self.xy_of(s);
                let px = x as i64 - dx;
                let py = y as i64 - dy;
                if px < 0 || py < 0 || px >= self.width as i64 || py >= self.height as i64 {
                    continue;
                }
                let p = self.state_of(px as u32, py as u32);
                if self.is_obstacle(p) || p == self.goal_state {
                    continue;
                }
                if dist[p as usize].is_none() && self.transition(p, a) == s {
                    dist[p as usize] = Some(d + 1);
                    queue.push_back(p);
                }
            }
        }
        dist
    }

    /// Render a greedy policy (one action per state) as an ASCII map:
    /// `G` goal, `#` obstacle, arrows elsewhere.
    pub fn render_policy(&self, policy: &[Action]) -> String {
        assert_eq!(policy.len(), self.num_states(), "policy length mismatch");
        let mut out = String::with_capacity((self.width as usize + 1) * self.height as usize);
        for y in 0..self.height {
            for x in 0..self.width {
                let s = self.state_of(x, y);
                let c = if s == self.goal_state {
                    'G'
                } else if self.is_obstacle(s) {
                    '#'
                } else {
                    self.actions.glyph(policy[s as usize])
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

impl Environment for GridWorld {
    #[inline]
    fn num_states(&self) -> usize {
        1usize << (self.xbits + self.ybits)
    }

    #[inline]
    fn num_actions(&self) -> usize {
        self.actions.len()
    }

    // Always inlined: the cycle-accurate engine evaluates the transition
    // unit on every step, in line, as the paper's combinational module
    // is. As a plain hint it stayed one call per step in each loop, ~5%
    // of the engine's time on a 16,384×8 grid.
    #[inline(always)]
    fn transition(&self, s: State, a: Action) -> State {
        debug_assert!(
            (a as usize) < self.actions.len(),
            "action {a} out of range for {}-action set",
            self.actions.len()
        );
        // A wall or obstacle bounces; filler addresses, states past the
        // packed space, obstacles and the goal self-loop: the
        // combinational module outputs the unchanged state.
        let legal = self.legal.get(s as usize).copied().unwrap_or(0);
        match self.offsets.get(a as usize) {
            Some(&d) if (legal >> a) & 1 != 0 => s.wrapping_add(d),
            _ => s,
        }
    }

    #[inline]
    fn reward(&self, s: State, a: Action) -> f64 {
        if !self.is_valid_state(s) || s == self.goal_state {
            return 0.0;
        }
        let t = self.transition(s, a);
        if t == self.goal_state {
            self.goal_reward
        } else if t == s {
            self.wall_penalty
        } else {
            self.step_reward
        }
    }

    #[inline]
    fn is_terminal(&self, s: State) -> bool {
        s == self.goal_state
    }

    #[inline]
    fn is_valid_state(&self, s: State) -> bool {
        self.in_grid(s) && !self.is_obstacle(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtaccel_hdl::lfsr::Lfsr32;

    fn grid4() -> GridWorld {
        GridWorld::builder(4, 4).goal(3, 3).build()
    }

    #[test]
    fn paper_bit_packing() {
        // 16x16 grid => 256 states, x in the top 4 bits.
        let g = GridWorld::builder(16, 16).goal(15, 15).build();
        assert_eq!(g.num_states(), 256);
        assert_eq!(g.state_of(0xA, 0x3), 0xA3);
        assert_eq!(g.xy_of(0xA3), (0xA, 0x3));
    }

    #[test]
    fn non_power_of_two_pads_address_space() {
        let g = GridWorld::builder(12, 4).goal(11, 3).build();
        // 12 columns need 4 bits, 4 rows need 2: 64 packed addresses.
        assert_eq!(g.num_states(), 64);
        assert!(g.in_grid(g.state_of(11, 3)));
        // Address with x = 13 is filler.
        let filler = (13u32 << 2) | 1;
        assert!(!g.in_grid(filler));
        assert!(!g.is_valid_state(filler));
        // Filler self-loops with zero reward.
        assert_eq!(g.transition(filler, 0), filler);
        assert_eq!(g.reward(filler, 0), 0.0);
    }

    #[test]
    fn four_action_encoding_matches_paper() {
        // 00 left, 01 up, 10 right, 11 down.
        let g = grid4();
        let s = g.state_of(1, 1);
        assert_eq!(g.transition(s, 0b00), g.state_of(0, 1));
        assert_eq!(g.transition(s, 0b01), g.state_of(1, 0));
        assert_eq!(g.transition(s, 0b10), g.state_of(2, 1));
        assert_eq!(g.transition(s, 0b11), g.state_of(1, 2));
    }

    #[test]
    fn eight_action_encoding_matches_paper() {
        // 000 left, 001 top-left, 010 up, 011 top-right, clockwise.
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .actions(ActionSet::Eight)
            .build();
        let s = g.state_of(1, 1);
        assert_eq!(g.transition(s, 0b000), g.state_of(0, 1));
        assert_eq!(g.transition(s, 0b001), g.state_of(0, 0));
        assert_eq!(g.transition(s, 0b010), g.state_of(1, 0));
        assert_eq!(g.transition(s, 0b011), g.state_of(2, 0));
        assert_eq!(g.transition(s, 0b100), g.state_of(2, 1));
        assert_eq!(g.transition(s, 0b101), g.state_of(2, 2));
        assert_eq!(g.transition(s, 0b110), g.state_of(1, 2));
        assert_eq!(g.transition(s, 0b111), g.state_of(0, 2));
    }

    #[test]
    fn walls_bounce() {
        let g = grid4();
        let corner = g.state_of(0, 0);
        assert_eq!(g.transition(corner, 0), corner, "left off grid");
        assert_eq!(g.transition(corner, 1), corner, "up off grid");
        assert_eq!(g.reward(corner, 0), -1.0, "wall penalty");
    }

    #[test]
    fn obstacles_bounce_and_are_invalid() {
        let g = GridWorld::builder(4, 4).goal(3, 3).obstacle(1, 0).build();
        let s = g.state_of(0, 0);
        let obst = g.state_of(1, 0);
        assert_eq!(g.transition(s, 2), s, "move into obstacle bounces");
        assert_eq!(g.reward(s, 2), -1.0);
        assert!(!g.is_valid_state(obst));
        assert_eq!(g.transition(obst, 2), obst, "obstacle self-loops");
    }

    #[test]
    fn goal_reward_and_terminal() {
        let g = grid4();
        let before = g.state_of(2, 3);
        assert_eq!(g.transition(before, 2), g.goal_state());
        assert_eq!(g.reward(before, 2), 1.0);
        assert!(g.is_terminal(g.goal_state()));
        assert!(!g.is_terminal(before));
        // Goal self-loops with zero reward (episode would restart).
        assert_eq!(g.transition(g.goal_state(), 0), g.goal_state());
        assert_eq!(g.reward(g.goal_state(), 0), 0.0);
    }

    #[test]
    fn custom_rewards() {
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .goal_reward(255.0)
            .wall_penalty(-255.0)
            .step_reward(0.0)
            .build();
        assert_eq!(g.reward(g.state_of(2, 3), 2), 255.0);
        assert_eq!(g.reward(g.state_of(0, 0), 0), -255.0);
        assert_eq!(g.reward(g.state_of(1, 1), 0), 0.0);
    }

    #[test]
    fn shortest_distances_bfs() {
        let g = grid4();
        let d = g.shortest_distances();
        assert_eq!(d[g.goal_state() as usize], Some(0));
        // Manhattan distance on an open 4-action grid.
        assert_eq!(d[g.state_of(0, 0) as usize], Some(6));
        assert_eq!(d[g.state_of(3, 2) as usize], Some(1));
    }

    #[test]
    fn shortest_distances_respect_obstacles() {
        // Wall across the middle with one gap at y = 0.
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .obstacles([(2, 1), (2, 2), (2, 3)])
            .build();
        let d = g.shortest_distances();
        // From (0,3) the path must detour via the top row.
        assert_eq!(d[g.state_of(0, 3) as usize], Some(9));
        assert_eq!(d[g.state_of(2, 2) as usize], None, "obstacle unreachable");
    }

    #[test]
    fn diagonal_moves_shorten_paths() {
        let g = GridWorld::builder(4, 4)
            .goal(3, 3)
            .actions(ActionSet::Eight)
            .build();
        let d = g.shortest_distances();
        assert_eq!(d[g.state_of(0, 0) as usize], Some(3), "diagonal run");
    }

    #[test]
    fn render_policy_shape() {
        let g = GridWorld::builder(4, 4).goal(3, 3).obstacle(1, 1).build();
        let policy = vec![2; g.num_states()];
        let map = g.render_policy(&policy);
        assert_eq!(map.lines().count(), 4);
        assert!(map.contains('G'));
        assert!(map.contains('#'));
        assert!(map.contains('>'));
    }

    #[test]
    fn random_grid_is_solvable() {
        let mut rng = Lfsr32::new(17);
        let g = GridWorld::random(8, 8, 20, ActionSet::Four, &mut rng);
        let reachable = g.shortest_distances().iter().flatten().count();
        assert!(reachable > 16, "reachable cells: {reachable}");
    }

    #[test]
    #[should_panic(expected = "needs a goal")]
    fn builder_requires_goal() {
        GridWorld::builder(4, 4).build();
    }

    #[test]
    #[should_panic(expected = "cannot be an obstacle")]
    fn builder_rejects_goal_on_obstacle() {
        GridWorld::builder(4, 4).goal(1, 1).obstacle(1, 1).build();
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn builder_rejects_out_of_bounds_goal() {
        GridWorld::builder(4, 4).goal(9, 9).build();
    }
}
