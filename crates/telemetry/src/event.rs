//! Typed trace events with cycle timestamps.
//!
//! The cycle-accurate pipeline emits one [`Event`] per architecturally
//! visible occurrence: a stage becoming occupied, a RAW hazard being
//! detected, a stall interval, a forwarded operand, a table commit. Each
//! event carries the simulation cycle it happened on, so the events a
//! [`RingSink`](crate::RingSink) keeps draw a waveform
//! ([`export::waveform`](crate::export::waveform)) or a Perfetto trace
//! ([`export::chrome_trace`](crate::export::chrome_trace)) that lines up
//! with the perf-counter bank. DESIGN.md §2.6 lists the variants.

/// Which on-chip table a memory-related event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// The Q-value table (|S|·|A| entries).
    Q,
    /// The Qmax/argmax table (|S| entries).
    Qmax,
    /// The probability table of the §VII-B policy unit (|S|·|A|
    /// weights).
    P,
}

impl MemKind {
    /// Stable lowercase name used in Perfetto trace arguments.
    pub const fn name(self) -> &'static str {
        match self {
            MemKind::Q => "q",
            MemKind::Qmax => "qmax",
            MemKind::P => "p",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A pipeline stage became occupied by an iteration.
    Stage {
        /// Cycle the stage is occupied on.
        cycle: u64,
        /// Stage number, 1–4.
        stage: u8,
        /// Zero-based training-iteration index occupying the stage.
        iteration: u64,
    },
    /// A RAW hazard was detected against an in-flight write.
    Hazard {
        /// Cycle of the conflicting read.
        cycle: u64,
        /// Which table the hazard is against.
        mem: MemKind,
        /// Flat table address of the conflict.
        addr: u64,
    },
    /// A stall interval opened (StallOnly hazard handling).
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// Which table the pipeline is waiting on.
        mem: MemKind,
        /// Flat table address being waited on.
        addr: u64,
    },
    /// The matching stall interval closed.
    StallEnd {
        /// First cycle after the stall.
        cycle: u64,
    },
    /// An operand was forwarded from the in-flight write queue.
    Forward {
        /// Cycle of the forwarded read.
        cycle: u64,
        /// Which table's queue served the value.
        mem: MemKind,
        /// Flat table address forwarded.
        addr: u64,
    },
    /// An in-flight write retired into the committed table.
    Commit {
        /// Commit cycle of the write.
        cycle: u64,
        /// Which table was written.
        mem: MemKind,
        /// Flat table address written.
        addr: u64,
    },
}

impl Event {
    /// The cycle timestamp carried by any event variant.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::Stage { cycle, .. }
            | Event::Hazard { cycle, .. }
            | Event::StallBegin { cycle, .. }
            | Event::StallEnd { cycle }
            | Event::Forward { cycle, .. }
            | Event::Commit { cycle, .. } => cycle,
        }
    }
}
