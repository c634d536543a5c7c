//! Synchronous dual-port block RAM model.
//!
//! QTAccel keeps the Q-table, the reward table and the Qmax array in
//! on-chip BRAM (§IV-A). Two properties of real BRAM matter to the
//! architecture and are modelled here:
//!
//! 1. **Synchronous, one-cycle reads** — an address presented in cycle *t*
//!    produces data in cycle *t+1*. The pipeline's stage structure (and its
//!    forwarding network) exists precisely because of this latency.
//! 2. **Two ports** — "modern FPGAs support up to 2 concurrent accesses to
//!    the same block memory" (§VII-A), which is what allows the dual
//!    pipeline configuration. Concurrent writes to the same address are
//!    arbitrated: one port "arbitrarily overwrites the other".
//!
//! The model also carries the 36 Kb block cost function used by the
//! resource reports (Fig. 4).

/// Identifies one of the two hardware ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BramPort {
    /// Port A (wins write collisions under [`WriteCollisionPolicy::PortAWins`]).
    A,
    /// Port B.
    B,
}

impl BramPort {
    #[inline]
    fn idx(self) -> usize {
        match self {
            BramPort::A => 0,
            BramPort::B => 1,
        }
    }
}

/// What happens when both ports write the same address in the same cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WriteCollisionPolicy {
    /// Port A's write survives (the paper's "arbitrarily overwrites").
    #[default]
    PortAWins,
    /// Port B's write survives.
    PortBWins,
}

/// Cycle-level statistics for one BRAM instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BramStats {
    /// Read operations completed.
    pub reads: u64,
    /// Write operations committed.
    pub writes: u64,
    /// Same-address same-cycle write collisions (one write was lost).
    pub write_collisions: u64,
    /// Fault-injector bit flips landed via [`Bram::inject`]. Unlike
    /// `writes`, these never correspond to a port operation — they model
    /// radiation upsetting a cell between accesses — but they must still
    /// be visible in stats dumps so fault campaigns are auditable.
    pub injected_writes: u64,
}

/// A dual-port synchronous RAM holding `T` words.
///
/// Usage per cycle: issue reads/writes with [`Bram::issue_read`] /
/// [`Bram::issue_write`], then call [`Bram::tick`] once to advance the
/// clock; read data issued in the previous cycle becomes available via
/// [`Bram::read_data`]. The model is *read-first*: a read and a write to
/// the same address in the same cycle return the **old** word, matching
/// the Xilinx `READ_FIRST` primitive mode. Write-before-read bypassing is
/// the forwarding network's job, in the pipeline — not the RAM's.
#[derive(Debug, Clone)]
pub struct Bram<T> {
    data: Vec<T>,
    width_bits: u32,
    policy: WriteCollisionPolicy,
    pending_read_addr: [Option<usize>; 2],
    read_out: [Option<T>; 2],
    pending_write: [Option<(usize, T)>; 2],
    stats: BramStats,
}

impl<T: Copy + Default> Bram<T> {
    /// RAM with `entries` words of `width_bits` each, zero-initialized
    /// (the paper starts "with empty Q-table and a reward table").
    pub fn new(entries: usize, width_bits: u32) -> Self {
        assert!(entries > 0, "BRAM must have at least one entry");
        assert!(width_bits > 0, "BRAM word width must be positive");
        Self {
            data: vec![T::default(); entries],
            width_bits,
            policy: WriteCollisionPolicy::default(),
            pending_read_addr: [None; 2],
            read_out: [None; 2],
            pending_write: [None; 2],
            stats: BramStats::default(),
        }
    }

    /// Set the write-collision arbitration policy.
    pub fn with_collision_policy(mut self, policy: WriteCollisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of words.
    pub fn entries(&self) -> usize {
        self.data.len()
    }

    /// Word width in bits (drives the block cost).
    pub fn width_bits(&self) -> u32 {
        self.width_bits
    }

    /// Present a read address on `port`; data is available after `tick`.
    pub fn issue_read(&mut self, port: BramPort, addr: usize) {
        debug_assert!(addr < self.data.len(), "read address {addr} out of range");
        self.pending_read_addr[port.idx()] = Some(addr);
    }

    /// Present a write on `port`; it commits at `tick`.
    pub fn issue_write(&mut self, port: BramPort, addr: usize, value: T) {
        debug_assert!(addr < self.data.len(), "write address {addr} out of range");
        self.pending_write[port.idx()] = Some((addr, value));
    }

    /// Advance one clock: latch read data (read-first), then commit
    /// writes with collision arbitration.
    pub fn tick(&mut self) {
        for p in 0..2 {
            self.read_out[p] = self.pending_read_addr[p].take().map(|a| {
                self.stats.reads += 1;
                self.data[a]
            });
        }
        match (self.pending_write[0].take(), self.pending_write[1].take()) {
            (Some((a0, v0)), Some((a1, v1))) => {
                if a0 == a1 {
                    self.stats.write_collisions += 1;
                    self.stats.writes += 1;
                    let (_, v) = match self.policy {
                        WriteCollisionPolicy::PortAWins => (a0, v0),
                        WriteCollisionPolicy::PortBWins => (a1, v1),
                    };
                    self.data[a0] = v;
                } else {
                    self.data[a0] = v0;
                    self.data[a1] = v1;
                    self.stats.writes += 2;
                }
            }
            (Some((a, v)), None) | (None, Some((a, v))) => {
                self.data[a] = v;
                self.stats.writes += 1;
            }
            (None, None) => {}
        }
    }

    /// Data latched by the last `tick` for a read issued on `port`
    /// (`None` if no read was issued).
    pub fn read_data(&self, port: BramPort) -> Option<T> {
        self.read_out[port.idx()]
    }

    /// Zero-latency backdoor read — host-side inspection only (the
    /// equivalent of reading back the BRAM contents after the run).
    pub fn peek(&self, addr: usize) -> T {
        self.data[addr]
    }

    /// Zero-latency backdoor write — host-side initialization only (the
    /// equivalent of the initial memory file loaded at configuration).
    pub fn poke(&mut self, addr: usize, value: T) {
        self.data[addr] = value;
    }

    /// A fault-injector write: same zero-latency semantics as
    /// [`Bram::poke`], but counted in [`BramStats::injected_writes`] so
    /// injected corruption shows up in stats dumps instead of silently
    /// bypassing the bookkeeping.
    pub fn inject(&mut self, addr: usize, value: T) {
        self.data[addr] = value;
        self.stats.injected_writes += 1;
    }

    /// Whole contents, for post-run extraction.
    pub fn contents(&self) -> &[T] {
        &self.data
    }

    /// Cycle statistics.
    pub fn stats(&self) -> BramStats {
        self.stats
    }

    /// Number of 36 Kb blocks this RAM occupies.
    pub fn blocks(&self) -> u64 {
        blocks_for(self.data.len() as u64, self.width_bits)
    }

    /// Capacity in bits actually stored (entries × width).
    pub fn capacity_bits(&self) -> u64 {
        self.data.len() as u64 * self.width_bits as u64
    }
}

/// Number of Xilinx 36 Kb BRAM blocks needed for `entries` words of
/// `width_bits` each.
///
/// A 36 Kb block supports the aspect ratios 32K×1, 16K×2, 8K×4, 4K×9,
/// 2K×18 and 1K×36; wider words cascade `⌈w/36⌉` blocks side by side.
/// This is the granularity Vivado reports, so it is what Fig. 4's
/// utilization percentages are made of.
pub fn blocks_for(entries: u64, width_bits: u32) -> u64 {
    assert!(width_bits > 0);
    if entries == 0 {
        return 0;
    }
    let depth_per_block = match width_bits {
        1 => 32 * 1024,
        2 => 16 * 1024,
        3..=4 => 8 * 1024,
        5..=9 => 4 * 1024,
        10..=18 => 2 * 1024,
        19..=36 => 1024,
        _ => {
            // Cascade columns of 36-bit blocks.
            let columns = (width_bits as u64).div_ceil(36);
            return columns * entries.div_ceil(1024);
        }
    };
    entries.div_ceil(depth_per_block)
}

/// Number of UltraRAM (288 Kb, 4K×72) blocks for the same geometry — used
/// for the paper's "10 million state-action pairs in 360 Mb of UltraRAM"
/// scalability claim.
///
/// URAM has a fixed 4096×72 geometry; narrow entries are *packed*
/// (⌊72/w⌋ entries per word, the standard mapping), which is what makes
/// 10 M 16-bit pairs fit — unpacked, the claim would be false.
pub fn uram_blocks_for(entries: u64, width_bits: u32) -> u64 {
    if entries == 0 {
        return 0;
    }
    if width_bits <= 72 {
        let per_word = (72 / width_bits) as u64;
        entries.div_ceil(4096 * per_word)
    } else {
        let columns = (width_bits as u64).div_ceil(72);
        columns * entries.div_ceil(4096)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_has_one_cycle_latency() {
        let mut b = Bram::<u32>::new(16, 16);
        b.poke(3, 42);
        b.issue_read(BramPort::A, 3);
        assert_eq!(b.read_data(BramPort::A), None, "data before tick");
        b.tick();
        assert_eq!(b.read_data(BramPort::A), Some(42));
        // Data holds until the next read replaces it.
        b.tick();
        assert_eq!(b.read_data(BramPort::A), None, "no read issued");
    }

    #[test]
    fn write_commits_at_tick() {
        let mut b = Bram::<u32>::new(8, 16);
        b.issue_write(BramPort::A, 5, 7);
        assert_eq!(b.peek(5), 0, "write before tick must not be visible");
        b.tick();
        assert_eq!(b.peek(5), 7);
    }

    #[test]
    fn read_first_semantics_on_same_cycle_rw() {
        let mut b = Bram::<u32>::new(8, 16);
        b.poke(2, 10);
        b.issue_read(BramPort::A, 2);
        b.issue_write(BramPort::B, 2, 99);
        b.tick();
        assert_eq!(b.read_data(BramPort::A), Some(10), "read-first returns old");
        assert_eq!(b.peek(2), 99, "write still commits");
    }

    #[test]
    fn ports_are_independent() {
        let mut b = Bram::<u32>::new(8, 16);
        b.poke(1, 11);
        b.poke(2, 22);
        b.issue_read(BramPort::A, 1);
        b.issue_read(BramPort::B, 2);
        b.tick();
        assert_eq!(b.read_data(BramPort::A), Some(11));
        assert_eq!(b.read_data(BramPort::B), Some(22));
    }

    #[test]
    fn write_collision_port_a_wins_by_default() {
        let mut b = Bram::<u32>::new(8, 16);
        b.issue_write(BramPort::A, 4, 1);
        b.issue_write(BramPort::B, 4, 2);
        b.tick();
        assert_eq!(b.peek(4), 1);
        assert_eq!(b.stats().write_collisions, 1);
        // Exactly one of the two writes survives: never both, never zero.
        assert_eq!(b.stats().writes, 1);
    }

    #[test]
    fn write_collision_port_b_policy() {
        let mut b = Bram::<u32>::new(8, 16).with_collision_policy(WriteCollisionPolicy::PortBWins);
        b.issue_write(BramPort::A, 4, 1);
        b.issue_write(BramPort::B, 4, 2);
        b.tick();
        assert_eq!(b.peek(4), 2);
    }

    #[test]
    fn distinct_address_writes_both_commit() {
        let mut b = Bram::<u32>::new(8, 16);
        b.issue_write(BramPort::A, 1, 10);
        b.issue_write(BramPort::B, 2, 20);
        b.tick();
        assert_eq!((b.peek(1), b.peek(2)), (10, 20));
        assert_eq!(b.stats().write_collisions, 0);
        assert_eq!(b.stats().writes, 2);
    }

    #[test]
    fn stats_count_reads() {
        let mut b = Bram::<u32>::new(8, 16);
        for i in 0..5 {
            b.issue_read(BramPort::A, i);
            b.tick();
        }
        assert_eq!(b.stats().reads, 5);
    }

    #[test]
    fn inject_counts_but_poke_does_not() {
        let mut b = Bram::<u32>::new(8, 16);
        b.poke(1, 5);
        assert_eq!(
            b.stats().injected_writes,
            0,
            "poke is configuration, not a fault"
        );
        b.inject(1, 6);
        b.inject(2, 7);
        assert_eq!(b.peek(1), 6);
        assert_eq!(b.stats().injected_writes, 2);
        assert_eq!(b.stats().writes, 0, "injected flips are not port writes");
    }

    #[test]
    fn block_cost_aspect_ratios() {
        // 2K deep 16-bit fits one block.
        assert_eq!(blocks_for(2048, 16), 1);
        assert_eq!(blocks_for(2049, 16), 2);
        // 1K deep 32-bit fits one block.
        assert_eq!(blocks_for(1024, 32), 1);
        // 4K deep 8-bit fits one block.
        assert_eq!(blocks_for(4096, 8), 1);
        // 64-bit words cascade 2 columns.
        assert_eq!(blocks_for(1024, 64), 2);
        // Paper's largest case: 2^21 entries of 16 bits per table.
        assert_eq!(blocks_for(1 << 21, 16), 1024);
        assert_eq!(blocks_for(0, 16), 0);
    }

    #[test]
    fn uram_cost() {
        // 16-bit entries pack 4 per 72-bit word: 16384 entries per block.
        assert_eq!(uram_blocks_for(16384, 16), 1);
        assert_eq!(uram_blocks_for(16385, 16), 2);
        // 72-bit entries: one per word.
        assert_eq!(uram_blocks_for(4096, 72), 1);
        assert_eq!(uram_blocks_for(4097, 72), 2);
        // Wider than a word: cascade columns.
        assert_eq!(uram_blocks_for(4096, 144), 2);
        // The paper's scalability claim: 10M pairs, two 16-bit tables.
        assert!(2 * uram_blocks_for(10_000_000, 16) <= 1280);
    }

    #[test]
    fn bram_struct_reports_blocks() {
        let b = Bram::<u32>::new(4096, 16);
        assert_eq!(b.blocks(), 2);
        assert_eq!(b.capacity_bits(), 4096 * 16);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        Bram::<u32>::new(0, 16);
    }
}
