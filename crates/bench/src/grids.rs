//! Construction of the paper's grid-world test cases (Table I).

use qtaccel_envs::{ActionSet, GridWorld};

/// Build the square grid world whose packed state space has exactly
/// `num_states` states (a power of 4, as in Table I), with the given
/// action count (4 or 8) and the paper's reward convention.
///
/// The goal is placed in the far corner; a diagonal band of obstacles is
/// added (≈ 3 % of cells) so the environment is not trivially open, as
/// the paper's Fig. 2 example shows obstacles.
pub fn paper_grid(num_states: usize, num_actions: usize) -> GridWorld {
    assert!(num_states >= 4, "need at least a 2x2 grid");
    let side_bits = {
        let bits = usize::BITS - (num_states - 1).leading_zeros();
        assert_eq!(1usize << bits, num_states, "|S| must be a power of two");
        assert_eq!(bits % 2, 0, "|S| must be a square (power of 4)");
        bits / 2
    };
    let side = 1u32 << side_bits;
    let actions = match num_actions {
        4 => ActionSet::Four,
        8 => ActionSet::Eight,
        _ => panic!("the paper evaluates 4 or 8 actions, got {num_actions}"),
    };
    let mut b = GridWorld::builder(side, side)
        .goal(side - 1, side - 1)
        .actions(actions);
    // A sparse diagonal obstacle band, avoiding start/goal corners.
    if side >= 8 {
        for i in (2..side - 2).step_by(4) {
            b = b.obstacle(i, side - 1 - i);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::TABLE1_STATES;
    use qtaccel_envs::Environment;

    #[test]
    fn builds_every_table1_case() {
        for &s in &TABLE1_STATES {
            for a in [4usize, 8] {
                let g = paper_grid(s, a);
                assert_eq!(g.num_states(), s, "|S|={s}");
                assert_eq!(g.num_actions(), a);
            }
        }
    }

    #[test]
    fn goal_is_reachable_despite_obstacles() {
        let g = paper_grid(4096, 8);
        let reachable = g.shortest_distances().iter().flatten().count();
        assert!(reachable > 3000, "reachable {reachable}");
    }

    #[test]
    #[should_panic(expected = "power of")]
    fn rejects_non_square_sizes() {
        paper_grid(128, 4);
    }
}
