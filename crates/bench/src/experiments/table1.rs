//! Table I — the evaluated test cases.

use crate::paper::{TABLE1_ACTIONS, TABLE1_STATES};
use crate::report::render_table;
use qtaccel_envs::Environment;

/// One test case row.
#[derive(Debug, Clone, Copy)]
pub struct Case {
    /// Case number (1-based, as in the paper).
    pub case: usize,
    /// Number of states.
    pub states: usize,
    /// Grid side length (states are a side×side grid).
    pub side: u32,
    /// Action counts evaluated.
    pub actions: [usize; 2],
    /// State-action pairs at 8 actions.
    pub pairs_a8: usize,
}

/// The full test-case matrix.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// All seven cases.
    pub cases: Vec<Case>,
}

/// Enumerate Table I and verify each case constructs.
pub fn run() -> Table1 {
    let cases = TABLE1_STATES
        .iter()
        .enumerate()
        .map(|(i, &states)| {
            // Constructing the environment validates the encoding.
            let g = crate::grids::paper_grid(states, 8);
            assert_eq!(g.num_states(), states);
            Case {
                case: i + 1,
                states,
                side: g.width(),
                actions: TABLE1_ACTIONS,
                pairs_a8: states * 8,
            }
        })
        .collect();
    Table1 { cases }
}

impl Table1 {
    /// Render in the paper's layout.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.case.to_string(),
                    c.states.to_string(),
                    format!("{}x{}", c.side, c.side),
                    "4, 8".to_string(),
                    c.pairs_a8.to_string(),
                ]
            })
            .collect();
        render_table(
            "Table I: test cases",
            &["case", "|S|", "grid", "|A|", "pairs (|A|=8)"],
            &rows,
        )
    }
}

crate::impl_to_json!(Case {
    case,
    states,
    side,
    actions,
    pairs_a8
});
crate::impl_to_json!(Table1 { cases });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_cases_up_to_two_million_pairs() {
        let t = run();
        assert_eq!(t.cases.len(), 7);
        assert_eq!(t.cases[6].pairs_a8, 2 * 1024 * 1024);
        assert_eq!(t.cases[6].side, 512);
        assert!(t.render().contains("512x512"));
    }
}
