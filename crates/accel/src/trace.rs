//! Pipeline occupancy tracing — a text waveform of the 4-stage pipe.
//!
//! [`PipelineTrace`] is a bounded [`TraceSink`]: attach one via
//! [`AccelPipeline::with_sink`](crate::AccelPipeline::with_sink) and
//! every retired iteration logs which cycle it occupied each stage. The
//! waveform renderer draws the classic pipeline diagram (stages as rows,
//! cycles as columns, iteration ids as cells), which makes the
//! architecture's behaviour directly visible: a solid diagonal at one
//! iteration per cycle under forwarding, bubbles opening up under
//! stall-only hazard handling, and the |A|-cycle gaps of the exact-scan
//! mode.
//!
//! Recording is **iteration-atomic**: an iteration either contributes all
//! four of its stage slots or none. A full trace never truncates an
//! iteration mid-flight (which used to leave a torn partial row in the
//! waveform); instead the iteration is counted in
//! [`dropped_iterations`](PipelineTrace::dropped_iterations), the same
//! accounting the telemetry ring sink reports.

use qtaccel_telemetry::{Event, TraceSink};

/// One stage occupancy record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock cycle.
    pub cycle: u64,
    /// Pipeline stage (1–4).
    pub stage: u8,
    /// Iteration (sample) index, 0-based.
    pub iteration: u64,
}

/// A bounded, iteration-atomic recording of stage occupancy.
#[derive(Debug, Clone)]
pub struct PipelineTrace {
    events: Vec<TraceEvent>,
    capacity: usize,
    // Stage events of the iteration currently being received through the
    // sink interface (the pipeline emits stages 1–4 back to back).
    staged: Vec<TraceEvent>,
    dropped_iterations: u64,
}

impl PipelineTrace {
    /// A trace that keeps the first `capacity` events (4 per iteration).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Self {
            events: Vec::new(),
            capacity,
            staged: Vec::with_capacity(4),
            dropped_iterations: 0,
        }
    }

    /// All recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Can the trace not accept another full iteration?
    pub fn is_full(&self) -> bool {
        self.events.len() + 4 > self.capacity
    }

    /// Iterations that arrived after the trace filled and were dropped
    /// whole (see the module docs on atomicity).
    pub fn dropped_iterations(&self) -> u64 {
        self.dropped_iterations
    }

    /// Render a text waveform covering cycles `[from, from + width)`.
    /// Rows are stages S1–S4; cells show `iteration % 10`, `.` for an
    /// idle slot.
    pub fn render_waveform(&self, from: u64, width: u64) -> String {
        let mut grid = vec![vec!['.'; width as usize]; 4];
        for e in &self.events {
            if e.cycle >= from && e.cycle < from + width {
                let col = (e.cycle - from) as usize;
                let row = (e.stage - 1) as usize;
                grid[row][col] = char::from_digit((e.iteration % 10) as u32, 10).unwrap_or('?');
            }
        }
        let mut out = String::new();
        out.push_str(&format!("cycle {from:>6} +{width}\n"));
        for (row, name) in grid.iter().zip(["S1", "S2", "S3", "S4"]) {
            out.push_str(name);
            out.push(' ');
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }

    /// Occupancy of a stage over the recorded window: fraction of cycles
    /// with an iteration present (1.0 = perfectly full pipe).
    pub fn occupancy(&self, stage: u8) -> f64 {
        let cycles: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.cycle)
            .collect();
        if cycles.is_empty() {
            return 0.0;
        }
        let span = cycles.iter().max().unwrap() - cycles.iter().min().unwrap() + 1;
        cycles.len() as f64 / span as f64
    }
}

impl TraceSink for PipelineTrace {
    const EVENTS: bool = true;
    const COUNTERS: bool = true;

    /// Collects the four `Event::Stage` records the pipeline emits per
    /// retirement (other event types pass through untracked — this sink
    /// renders occupancy, not the memory system) and commits them as one
    /// atomic iteration when stage 4 arrives.
    fn record(&mut self, ev: &Event) {
        if let Event::Stage {
            cycle,
            stage,
            iteration,
        } = *ev
        {
            if stage == 1 {
                self.staged.clear();
            }
            self.staged.push(TraceEvent {
                cycle,
                stage,
                iteration,
            });
            if stage == 4 {
                if self.events.len() + self.staged.len() <= self.capacity {
                    self.events.append(&mut self.staged);
                } else {
                    self.dropped_iterations += 1;
                    self.staged.clear();
                }
            }
        }
    }

    fn dropped_iterations(&self) -> u64 {
        self.dropped_iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AccelConfig, HazardMode};
    use crate::pipeline::AccelPipeline;
    use qtaccel_envs::GridWorld;
    use qtaccel_fixed::Q8_8;

    /// A pipeline on `g` under `cfg` that feeds a trace of `capacity`
    /// events.
    fn traced(
        g: &GridWorld,
        cfg: AccelConfig,
        capacity: usize,
    ) -> AccelPipeline<Q8_8, PipelineTrace> {
        AccelPipeline::with_sink(g, cfg, 0, PipelineTrace::new(capacity))
    }

    #[test]
    fn records_four_events_per_iteration() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut p = traced(&g, AccelConfig::default().with_seed(1), 100);
        p.run_samples(&g, 2);
        let t = p.sink();
        assert_eq!(t.events().len(), 8);
        assert_eq!(
            t.events()[0],
            TraceEvent {
                cycle: 0,
                stage: 1,
                iteration: 0
            }
        );
        assert_eq!(
            t.events()[7],
            TraceEvent {
                cycle: 4,
                stage: 4,
                iteration: 1
            }
        );
    }

    #[test]
    fn capacity_is_iteration_atomic() {
        // Capacity 6 holds one whole iteration; the second no longer
        // half-fits (4 + 4 > 6) and is dropped whole, not truncated to a
        // torn 2-event stub as the pre-telemetry implementation did.
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut p = traced(&g, AccelConfig::default().with_seed(1), 6);
        p.step(&g);
        assert!(p.sink().is_full());
        p.step(&g);
        assert_eq!(p.sink().events().len(), 4);
        assert_eq!(p.sink().dropped_iterations(), 1);
        p.step(&g);
        assert_eq!(p.sink().dropped_iterations(), 2);
    }

    #[test]
    fn waveform_shows_the_full_diagonal_under_forwarding() {
        let g = GridWorld::builder(4, 4).goal(3, 3).build();
        let mut p = traced(&g, AccelConfig::default().with_seed(1), 400);
        p.run_samples(&g, 100);
        let trace = p.sink();
        // Steady state: every stage fully occupied.
        for stage in 1..=4u8 {
            assert!(
                trace.occupancy(stage) > 0.99,
                "stage {stage}: {}",
                trace.occupancy(stage)
            );
        }
        let wf = trace.render_waveform(4, 12);
        // The S1 row shows consecutive iteration digits with no dots.
        let s1 = wf.lines().nth(1).unwrap();
        assert!(!s1[3..].contains('.'), "{wf}");
        // The diagonal structure: iteration k is in S4 three cycles after S1.
        let s4 = wf.lines().nth(4).unwrap();
        assert_eq!(&s1[3..4], &s4[6..7], "{wf}");
    }

    #[test]
    fn waveform_shows_bubbles_under_stalling() {
        let g = GridWorld::builder(2, 2).goal(1, 1).build();
        let cfg = AccelConfig::default()
            .with_seed(3)
            .with_hazard(HazardMode::StallOnly);
        let mut p = traced(&g, cfg, 4000);
        p.run_samples(&g, 500);
        let trace = p.sink();
        // Hazard-heavy 4-state world: the back half of the pipe has idle
        // slots (occupancy measurably below 1).
        assert!(
            trace.occupancy(4) < 0.95,
            "expected stall bubbles: {}",
            trace.occupancy(4)
        );
        let wf = trace.render_waveform(10, 40);
        assert!(wf.lines().nth(4).unwrap().contains('.'), "{wf}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        PipelineTrace::new(0);
    }
}
