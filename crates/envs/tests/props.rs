//! Property-based tests for the environments.

use proptest::prelude::*;
use qtaccel_envs::{
    Action, ActionSet, CliffWalk, Environment, GridWorld, RewardMemo, RewardTable, State,
};
use qtaccel_fixed::{QValue, QuantPolicy, Q16_16, Q8_8};
use qtaccel_hdl::lfsr::Lfsr32;
use qtaccel_hdl::rng::RngSource;
use std::collections::HashSet;

fn arb_grid() -> impl Strategy<Value = GridWorld> {
    (1u32..10_000, 0u32..25, any::<bool>()).prop_map(|(seed, density, eight)| {
        let mut rng = Lfsr32::new(seed);
        let actions = if eight {
            ActionSet::Eight
        } else {
            ActionSet::Four
        };
        GridWorld::random(8, 8, density, actions, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transitions_stay_in_valid_states(g in arb_grid()) {
        for s in 0..g.num_states() as u32 {
            for a in 0..g.num_actions() as u32 {
                let t = g.transition(s, a);
                prop_assert!((t as usize) < g.num_states());
                if g.is_valid_state(s) {
                    // Valid states never transition into obstacles or
                    // off-grid filler.
                    prop_assert!(g.is_valid_state(t), "s={s} a={a} -> t={t}");
                }
            }
        }
    }

    #[test]
    fn invalid_states_self_loop_with_zero_reward(g in arb_grid()) {
        for s in 0..g.num_states() as u32 {
            if !g.is_valid_state(s) {
                for a in 0..g.num_actions() as u32 {
                    prop_assert_eq!(g.transition(s, a), s);
                    prop_assert_eq!(g.reward(s, a), 0.0);
                }
            }
        }
    }

    #[test]
    fn rewards_are_bounded(g in arb_grid()) {
        for s in 0..g.num_states() as u32 {
            for a in 0..g.num_actions() as u32 {
                let r = g.reward(s, a);
                prop_assert!((-1.0..=1.0).contains(&r), "r={r}");
            }
        }
    }

    #[test]
    fn xy_roundtrip(g in arb_grid()) {
        for x in 0..g.width() {
            for y in 0..g.height() {
                prop_assert_eq!(g.xy_of(g.state_of(x, y)), (x, y));
            }
        }
    }

    #[test]
    fn bfs_distances_are_consistent(g in arb_grid()) {
        // Triangle property: a one-step transition changes the BFS
        // distance by at most 1 (and reaching the goal means d = 1).
        let d = g.shortest_distances();
        for s in 0..g.num_states() as u32 {
            if !g.is_valid_state(s) || g.is_terminal(s) {
                continue;
            }
            let Some(ds) = d[s as usize] else { continue };
            prop_assert!(ds >= 1);
            for a in 0..g.num_actions() as u32 {
                let t = g.transition(s, a);
                if let Some(dt) = d[t as usize] {
                    prop_assert!(dt + 1 >= ds, "s={s} (d={ds}) -> t={t} (d={dt})");
                }
            }
            // Some action must decrease the distance (BFS predecessor).
            let improves = (0..g.num_actions() as u32).any(|a| {
                let t = g.transition(s, a);
                d[t as usize].map(|dt| dt + 1 == ds).unwrap_or(false)
            });
            prop_assert!(improves, "state {s} has no improving action");
        }
    }

    #[test]
    fn goal_distance_zero_only_at_goal(g in arb_grid()) {
        let d = g.shortest_distances();
        for s in 0..g.num_states() as u32 {
            if d[s as usize] == Some(0) {
                prop_assert!(g.is_terminal(s));
            }
        }
    }

    #[test]
    fn random_start_is_always_valid(g in arb_grid(), seed in 1u32..10_000) {
        let mut rng = Lfsr32::new(seed);
        for _ in 0..32 {
            let s = g.random_start(&mut rng);
            prop_assert!(g.is_valid_state(s));
            prop_assert!(!g.is_terminal(s));
        }
    }

    #[test]
    fn cliff_walk_invariants(w in 3u32..16, h in 2u32..8) {
        let c = CliffWalk::new(w, h);
        // The start and goal are valid, every cliff cell is invalid.
        prop_assert!(c.is_valid_state(c.start_state()));
        prop_assert!(c.is_valid_state(c.goal_state()));
        for s in 0..c.num_states() as u32 {
            if c.is_cliff(s) {
                prop_assert!(!c.is_valid_state(s));
            }
            // All transitions land in-range.
            for a in 0..4 {
                prop_assert!((c.transition(s, a) as usize) < c.num_states());
            }
        }
        // Falling costs the cliff penalty and teleports to start.
        let above = c.transition(c.start_state(), 1); // up from start
        if c.is_valid_state(above) && h >= 2 && w > 2 {
            let back_down = c.transition(above, 3);
            prop_assert_eq!(back_down, c.start_state());
        }
    }
}

/// A grid world's description, kept beside the grid built from it, so a
/// test can evaluate the transition and reward geometrically.
#[derive(Debug)]
struct Described {
    grid: GridWorld,
    width: u32,
    height: u32,
    goal: (u32, u32),
    obstacles: HashSet<(u32, u32)>,
    actions: ActionSet,
    /// Goal reward, wall penalty and step reward.
    rewards: [f64; 3],
}

impl Described {
    /// (x, y) of a packed address: y in the low bits, as many as the
    /// height needs.
    fn xy(&self, s: State) -> (u64, u64) {
        let ybits = 32 - (self.height - 1).leading_zeros();
        (u64::from(s) >> ybits, u64::from(s) & ((1 << ybits) - 1))
    }

    /// A cell inside the grid that is not an obstacle.
    fn valid(&self, s: State) -> bool {
        let (x, y) = self.xy(s);
        x < u64::from(self.width)
            && y < u64::from(self.height)
            && !self.obstacles.contains(&(x as u32, y as u32))
    }

    fn live(&self, s: State) -> bool {
        let (x, y) = self.xy(s);
        self.valid(s) && (x as u32, y as u32) != self.goal
    }

    /// The transition as geometry: a live cell moves by the action's
    /// delta unless that leaves the grid or enters an obstacle; every
    /// other address stays put.
    fn transition(&self, s: State, a: Action) -> State {
        if !self.live(s) {
            return s;
        }
        let (x, y) = self.xy(s);
        let (dx, dy) = self.actions.delta(a);
        let (nx, ny) = (x as i64 + dx, y as i64 + dy);
        if nx < 0 || ny < 0 || nx >= i64::from(self.width) || ny >= i64::from(self.height) {
            return s;
        }
        if self.obstacles.contains(&(nx as u32, ny as u32)) {
            return s;
        }
        self.grid.state_of(nx as u32, ny as u32)
    }

    fn reward(&self, s: State, a: Action) -> f64 {
        let [goal, wall, step] = self.rewards;
        if !self.live(s) {
            return 0.0;
        }
        let t = self.transition(s, a);
        if t == self.grid.goal_state() {
            goal
        } else if t == s {
            wall
        } else {
            step
        }
    }
}

/// Random grids of 2–13 cells a side, so most packings hold filler
/// addresses, with either action set, 0–40% obstacles, a free goal and
/// rewards of either sign.
fn arb_described() -> impl Strategy<Value = Described> {
    (
        (2u32..14, 2u32..14),
        0u32..=40,
        any::<bool>(),
        1u32..100_000,
        (-4.0f64..4.0, -4.0f64..4.0, -4.0f64..4.0),
    )
        .prop_map(
            |((width, height), pct, eight, seed, (goal_r, wall, step))| {
                let mut rng = Lfsr32::new(seed);
                let cells = (0..width).flat_map(|x| (0..height).map(move |y| (x, y)));
                let mut obstacles: HashSet<_> = cells.filter(|_| rng.below(100) < pct).collect();
                let free: Vec<_> = (0..width)
                    .flat_map(|x| (0..height).map(move |y| (x, y)))
                    .filter(|c| !obstacles.contains(c))
                    .collect();
                let goal = match free.len() {
                    0 => (0, 0),
                    n => free[rng.below(n as u32) as usize],
                };
                obstacles.remove(&goal);
                let actions = if eight {
                    ActionSet::Eight
                } else {
                    ActionSet::Four
                };
                let grid = GridWorld::builder(width, height)
                    .goal(goal.0, goal.1)
                    .obstacles(obstacles.iter().copied())
                    .actions(actions)
                    .goal_reward(goal_r)
                    .wall_penalty(wall)
                    .step_reward(step)
                    .build();
                Described {
                    grid,
                    width,
                    height,
                    goal,
                    obstacles,
                    actions,
                    rewards: [goal_r, wall, step],
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The legal-move byte and offset add that `build` computes give the
    /// geometric transition and reward for every (s, a), and the obstacle
    /// bits the valid states: every packed address, filler included, and
    /// addresses past the packed space.
    #[test]
    fn grid_transition_and_reward_match_the_geometry(d in arb_described(), far in any::<u32>()) {
        let g = &d.grid;
        let n = g.num_states() as State;
        let past = [n, n + 1, 2 * n - 1, n << 3, far | n, u32::MAX - 1, u32::MAX];
        for s in (0..n).chain(past) {
            prop_assert_eq!(g.is_valid_state(s), d.valid(s), "s {}", s);
            for a in 0..g.num_actions() as Action {
                prop_assert_eq!(g.transition(s, a), d.transition(s, a), "s {} a {}", s, a);
                prop_assert_eq!(g.reward(s, a).to_bits(), d.reward(s, a).to_bits(), "s {} a {}", s, a);
            }
        }
    }
}

/// Rewards the memo must tell apart or convert faithfully: both zeros,
/// two NaN payloads, both infinities, subnormals, values past `Q8_8`'s
/// rails (±128) and past `Q16_16`'s, and ordinary on- and off-grid
/// values — more of them than the memo remembers.
const REWARD_POOL: [f64; 18] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::from_bits(0x7ff8_0000_0000_0001),
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 4.0,
    -5e-324,
    1.0,
    -1.0,
    0.3,
    -0.01,
    127.998,
    128.0,
    -128.5,
    40_000.0,
    -1e300,
    0.001953125,
];

/// A dense reward table as an environment: every state self-loops, and
/// cell `(s, a)` pays `rewards[s·|A| + a]`.
#[derive(Debug)]
struct TableEnv {
    actions: usize,
    rewards: Vec<f64>,
}

impl Environment for TableEnv {
    fn num_states(&self) -> usize {
        self.rewards.len() / self.actions
    }
    fn num_actions(&self) -> usize {
        self.actions
    }
    fn transition(&self, s: State, _a: Action) -> State {
        s
    }
    fn reward(&self, s: State, a: Action) -> f64 {
        self.rewards[s as usize * self.actions + a as usize]
    }
    fn is_terminal(&self, _s: State) -> bool {
        false
    }
}

/// Reward functions drawn from a small pool, so values repeat in runs
/// and at random, as a grid world's do.
fn arb_table_env() -> impl Strategy<Value = TableEnv> {
    (
        1usize..=8,
        1usize..=24,
        prop::collection::vec((0..REWARD_POOL.len(), 1usize..6), 1..64),
    )
        .prop_map(|(actions, states, runs)| {
            let rewards = runs
                .iter()
                .flat_map(|&(i, run)| std::iter::repeat_n(REWARD_POOL[i], run))
                .cycle()
                .take(actions * states)
                .collect();
            TableEnv { actions, rewards }
        })
}

/// `RewardTable::from_env` equals a per-cell `V::from_f64`, bit for bit.
fn assert_converts_per_cell<V: QValue>(env: &TableEnv) {
    let table = RewardTable::<V>::from_env(env);
    let got: Vec<u64> = table.as_slice().iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = env
        .rewards
        .iter()
        .map(|&r| V::from_f64(r).to_bits())
        .collect();
    prop_assert_eq!(got, want, "{}", V::format_name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reward_table_converts_like_each_cell(env in arb_table_env()) {
        assert_converts_per_cell::<Q8_8>(&env);
        assert_converts_per_cell::<Q16_16>(&env);
        assert_converts_per_cell::<f32>(&env);
        assert_converts_per_cell::<f64>(&env);
    }

    #[test]
    fn snapped_reward_table_rounds_like_each_cell(env in arb_table_env()) {
        for policy in [QuantPolicy::q8(), QuantPolicy::q6(), QuantPolicy::q4()] {
            let table = RewardTable::<Q8_8>::from_env_with(&env, |v| policy.round_nearest(v));
            let got: Vec<u64> = table.as_slice().iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = env
                .rewards
                .iter()
                .map(|&r| policy.round_nearest(Q8_8::from_f64(r)).to_bits())
                .collect();
            prop_assert_eq!(got, want, "{}", policy.format_name());
        }
    }

    /// Up to eight distinct values (by bits), each converts exactly
    /// once; past that, every result is still the conversion's.
    #[test]
    fn reward_memo_converts_each_distinct_value_once(env in arb_table_env()) {
        let mut calls = 0u64;
        let mut memo = RewardMemo::new(|r: f64| {
            calls += 1;
            r.to_bits()
        });
        for &r in &env.rewards {
            prop_assert_eq!(memo.get(r), r.to_bits());
        }
        drop(memo);
        let mut distinct: Vec<u64> = env.rewards.iter().map(|r| r.to_bits()).collect();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() <= 8 {
            prop_assert_eq!(calls, distinct.len() as u64);
        } else {
            prop_assert!(calls >= distinct.len() as u64);
        }
    }
}
