//! The scale-out executor: a persistent host-side worker pool.
//!
//! The paper's answer to "more samples per second" past one full
//! pipeline is *replication* — §VII-A's independent pipelines on
//! disjoint BRAM banks, each retiring one sample per clock. On the host
//! the analogue is running P pipeline simulations on C cores. The seed
//! implementation spawned (and joined) a fresh OS thread per pipeline
//! on *every* training call, which taxes exactly the workloads a
//! production host serves: many short training bursts against
//! long-lived engines.
//!
//! [`ShardedExecutor`] replaces that with a worker pool created once:
//!
//! * **Persistent workers.** `threads` OS threads (default: the host's
//!   available parallelism) park on a condvar when idle. Submitting a
//!   batch costs one queue lock, not `P × thread::spawn`.
//! * **Chunked work queue.** A batch is a set of *shards* (one per
//!   pipeline). Each shard is re-entered chunk by chunk — it runs one
//!   bounded chunk of samples and reports whether work remains, and
//!   unfinished shards requeue at the *tail*. With
//!   P ≫ C every pipeline makes interleaved progress instead of the
//!   first C hogging their cores to completion; with P < C the spare
//!   workers simply stay parked. A shard is never queued (or running)
//!   twice concurrently, so each pipeline's samples execute strictly in
//!   order — thread count and scheduling can change *when* a chunk
//!   runs, never *what* it computes. That is the executor's determinism
//!   argument, pinned bit-exactly by `tests/scaling.rs`.
//! * **Lock-free hot path.** Workers touch shared state only between
//!   chunks (queue push/pop). Inside a chunk the pipeline runs on its
//!   own tables and its own telemetry [`CounterBank`] — per-shard
//!   results (Q tables, `CycleStats`, counter banks) are merged by the
//!   submitter *after* the batch completes, so no sample ever contends
//!   on a lock or an atomic.
//! * **Owned shards.** A batch moves its shards into the pool and gets
//!   them back. Each shard is a value that sits either in the queue or
//!   in one worker's hands, so it never runs twice at once, and nothing
//!   the pool can reach is left behind once the batch returns. A worker
//!   runs each chunk under `catch_unwind`; a shard that panicked is
//!   handed back like a finished one, the rest of the batch drains, and
//!   the first payload goes back to the submitter with the shards.
//!
//! [`CounterBank`]: qtaccel_telemetry::CounterBank

use qtaccel_telemetry::manifest::host_parallelism;
use qtaccel_telemetry::{Histogram, MetricsRegistry};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One shard of a batch, moved into the pool and back.
pub(crate) trait Shard: Any + Send {
    /// Run one bounded chunk of work; `true` while work remains.
    fn run_chunk(&mut self) -> bool;
}

/// A panic payload caught from a shard's chunk.
pub(crate) type Panic = Box<dyn Any + Send>;

/// Lock a mutex, shrugging off poisoning: no shard code runs while a
/// pool lock is held, so every update leaves the data valid.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Where a batch's shards come back to. The last one back wakes the
/// submitter, so it is woken once per batch.
struct Batch {
    returned: Mutex<Returned>,
    done: Condvar,
}

struct Returned {
    /// Slot `i` holds shard `i` once it is back.
    shards: Vec<Option<Box<dyn Shard>>>,
    /// Shards still queued or running.
    out: usize,
    /// First panic payload out of any shard.
    panic: Option<Panic>,
}

/// A queued shard: "run its next chunk".
struct QueuedChunk {
    shard: Box<dyn Shard>,
    /// The shard's slot in its batch.
    idx: usize,
    batch: Arc<Batch>,
    /// Enqueue timestamp, set only on instrumented pools (feeds the
    /// queue-wait histogram).
    enqueued: Option<Instant>,
}

/// Pool-wide shared state.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    work: Condvar,
    /// Introspection state; `None` on uninstrumented pools, whose hot
    /// path then pays one pointer test per *chunk* (chunks are ≥ 64K
    /// samples — see [`chunk_samples`] — so this is noise).
    metrics: Option<Arc<ExecutorMetrics>>,
}

/// Busy/idle accounting for one worker thread. All counters are relaxed
/// atomics: they are statistics, ordered by the batch's return when read.
#[derive(Debug, Default)]
struct WorkerCounters {
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    chunks: AtomicU64,
}

/// One worker's introspection snapshot (see
/// [`ExecutorMetrics::worker_snapshots`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index (matches the `qtaccel-shard-{i}` thread name).
    pub worker: usize,
    /// Nanoseconds spent executing chunks.
    pub busy_ns: u64,
    /// Nanoseconds spent parked or waiting for work.
    pub idle_ns: u64,
    /// Chunks executed.
    pub chunks: u64,
}

#[derive(Debug, Default)]
struct LatencyHistograms {
    chunk_service_ns: Histogram,
    queue_wait_ns: Histogram,
}

/// Introspection state of an instrumented [`ShardedExecutor`] (created
/// with [`ShardedExecutor::new_instrumented`]): per-worker busy/idle
/// time, chunk-service-time and queue-wait histograms, and a sampled
/// queue-depth gauge. Uninstrumented pools carry none of this — the
/// zero-cost-when-off telemetry policy extends to the executor.
#[derive(Debug)]
pub struct ExecutorMetrics {
    workers: Vec<WorkerCounters>,
    latency: Mutex<LatencyHistograms>,
    queue_depth: AtomicU64,
    queue_depth_peak: AtomicU64,
}

impl ExecutorMetrics {
    fn new(threads: usize) -> Self {
        Self {
            workers: (0..threads).map(|_| WorkerCounters::default()).collect(),
            latency: Mutex::new(LatencyHistograms::default()),
            queue_depth: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
        }
    }

    /// Per-worker busy/idle/chunk accounting, in worker order.
    pub fn worker_snapshots(&self) -> Vec<WorkerSnapshot> {
        self.workers
            .iter()
            .enumerate()
            .map(|(worker, c)| WorkerSnapshot {
                worker,
                busy_ns: c.busy_ns.load(Ordering::Relaxed),
                idle_ns: c.idle_ns.load(Ordering::Relaxed),
                chunks: c.chunks.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Distribution of wall-clock nanoseconds one chunk execution took.
    pub fn chunk_service_ns(&self) -> Histogram {
        lock_unpoisoned(&self.latency).chunk_service_ns.clone()
    }

    /// Distribution of nanoseconds chunks sat queued before a worker
    /// picked them up.
    pub fn queue_wait_ns(&self) -> Histogram {
        lock_unpoisoned(&self.latency).queue_wait_ns.clone()
    }

    /// Queue depth sampled at the most recent chunk pop.
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Deepest the queue has been (sampled at push).
    pub fn queue_depth_peak(&self) -> u64 {
        self.queue_depth_peak.load(Ordering::Relaxed)
    }

    /// Publish the executor's introspection state into a registry under
    /// the stable `qtaccel_executor_*` names DESIGN.md §2.10 lists.
    pub fn register_into(&self, registry: &mut MetricsRegistry) {
        let snaps = self.worker_snapshots();
        registry.set_gauge(
            "qtaccel_executor_workers",
            "persistent workers in the sharded executor pool",
            snaps.len() as f64,
        );
        registry.set_counter(
            "qtaccel_executor_busy_ns_total",
            "nanoseconds workers spent executing chunks, summed across workers",
            snaps.iter().map(|s| s.busy_ns).sum(),
        );
        registry.set_counter(
            "qtaccel_executor_idle_ns_total",
            "nanoseconds workers spent parked or waiting, summed across workers",
            snaps.iter().map(|s| s.idle_ns).sum(),
        );
        registry.set_counter(
            "qtaccel_executor_chunks_total",
            "shard chunks executed by the pool",
            snaps.iter().map(|s| s.chunks).sum(),
        );
        registry.set_gauge(
            "qtaccel_executor_queue_depth",
            "work-queue depth sampled at the most recent chunk pop",
            self.queue_depth() as f64,
        );
        registry.set_gauge(
            "qtaccel_executor_queue_depth_peak",
            "deepest the work queue has been",
            self.queue_depth_peak() as f64,
        );
        registry.set_histogram(
            "qtaccel_executor_chunk_service_ns",
            "wall-clock nanoseconds one chunk execution took",
            &self.chunk_service_ns(),
        );
        registry.set_histogram(
            "qtaccel_executor_queue_wait_ns",
            "nanoseconds chunks sat queued before a worker picked them up",
            &self.queue_wait_ns(),
        );
    }
}

struct PoolQueue {
    jobs: VecDeque<QueuedChunk>,
    shutdown: bool,
}

/// A persistent worker pool executing sharded batches (see the module
/// docs for the scheduling and determinism model).
pub struct ShardedExecutor {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ShardedExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedExecutor")
            .field("workers", &self.workers.len())
            .finish()
    }
}

static GLOBAL: OnceLock<ShardedExecutor> = OnceLock::new();

impl ShardedExecutor {
    /// A pool with `threads` persistent workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Self::build(threads, false)
    }

    /// An introspectable pool: same scheduling, plus the
    /// [`ExecutorMetrics`] accounting (per-worker busy/idle time,
    /// chunk/queue latency histograms, queue-depth gauges). The cost is
    /// two `Instant::now` reads and a few relaxed atomics per *chunk* —
    /// invisible next to the ≥ 64K samples a chunk executes — but the
    /// default pool stays literally unchanged.
    pub fn new_instrumented(threads: usize) -> Self {
        Self::build(threads, true)
    }

    fn build(threads: usize, instrumented: bool) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            metrics: instrumented.then(|| Arc::new(ExecutorMetrics::new(threads))),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qtaccel-shard-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn shard worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// The pool's introspection state; `None` unless the pool was built
    /// with [`new_instrumented`](Self::new_instrumented).
    pub fn metrics(&self) -> Option<&ExecutorMetrics> {
        self.shared.metrics.as_deref()
    }

    /// A pool sized to the host's available parallelism.
    pub fn with_default_parallelism() -> Self {
        Self::new(host_parallelism() as usize)
    }

    /// The process-global pool, created on first use with
    /// [`host_parallelism`] workers. Shared by every
    /// [`IndependentPipelines`] instance that was not given its own pool,
    /// so repeated short training calls never pay thread-creation cost.
    ///
    /// [`IndependentPipelines`]: crate::multi::IndependentPipelines
    pub fn global() -> &'static ShardedExecutor {
        GLOBAL.get_or_init(Self::with_default_parallelism)
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run a batch of shards to completion and hand them back in
    /// submission order, with the first panic any of them raised. Each
    /// shard requeues at the queue tail after a chunk while work remains,
    /// so shards progress fairly even when they outnumber workers.
    ///
    /// Must not be called from inside a shard running on the same pool
    /// (the nested batch could starve with every worker busy).
    pub(crate) fn run_shards<T: Shard>(&self, shards: Vec<T>) -> (Vec<Box<T>>, Option<Panic>) {
        let n = shards.len();
        let batch = Arc::new(Batch {
            returned: Mutex::new(Returned {
                shards: (0..n).map(|_| None).collect(),
                out: n,
                panic: None,
            }),
            done: Condvar::new(),
        });

        {
            let mut q = lock_unpoisoned(&self.shared.queue);
            let enqueued = self.shared.metrics.is_some().then(Instant::now);
            for (idx, shard) in shards.into_iter().enumerate() {
                q.jobs.push_back(QueuedChunk {
                    shard: Box::new(shard),
                    idx,
                    batch: Arc::clone(&batch),
                    enqueued,
                });
            }
            if let Some(m) = &self.shared.metrics {
                m.queue_depth_peak
                    .fetch_max(q.jobs.len() as u64, Ordering::Relaxed);
            }
        }
        // One wake per queued shard: notify_all would also wake workers
        // with nothing to grab when n < threads.
        for _ in 0..n.min(self.workers.len()) {
            self.shared.work.notify_one();
        }

        let mut r = lock_unpoisoned(&batch.returned);
        while r.out > 0 {
            r = batch.done.wait(r).unwrap_or_else(|e| e.into_inner());
        }
        let shards = std::mem::take(&mut r.shards).into_iter().map(|shard| {
            let shard: Box<dyn Any> = shard.expect("every shard is back");
            shard
                .downcast()
                .expect("a batch gets back the shards it queued")
        });
        (shards.collect(), r.panic.take())
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        {
            let mut q = lock_unpoisoned(&self.shared.queue);
            q.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    let metrics = shared.metrics.as_deref();
    loop {
        let idle_start = metrics.map(|_| Instant::now());
        let mut job = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    if let Some(m) = metrics {
                        // Sample the depth left behind at this pop.
                        m.queue_depth.store(q.jobs.len() as u64, Ordering::Relaxed);
                    }
                    break job;
                }
                // Drain the queue before honouring shutdown so a pool
                // dropped right after a submission still completes it.
                if q.shutdown {
                    return;
                }
                q = shared.work.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        if let Some(m) = metrics {
            let now = Instant::now();
            if let Some(start) = idle_start {
                m.workers[worker]
                    .idle_ns
                    .fetch_add((now - start).as_nanos() as u64, Ordering::Relaxed);
            }
            if let Some(enqueued) = job.enqueued {
                lock_unpoisoned(&m.latency)
                    .queue_wait_ns
                    .observe((now - enqueued).as_nanos() as u64);
            }
        }

        let busy_start = metrics.map(|_| Instant::now());
        let outcome = catch_unwind(AssertUnwindSafe(|| job.shard.run_chunk()));
        if let (Some(m), Some(start)) = (metrics, busy_start) {
            let elapsed = start.elapsed().as_nanos() as u64;
            m.workers[worker]
                .busy_ns
                .fetch_add(elapsed, Ordering::Relaxed);
            m.workers[worker].chunks.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&m.latency)
                .chunk_service_ns
                .observe(elapsed);
        }
        match outcome {
            Ok(true) => {
                // More chunks: requeue at the tail for fair interleave.
                {
                    let mut q = lock_unpoisoned(&shared.queue);
                    job.enqueued = metrics.map(|_| Instant::now());
                    q.jobs.push_back(job);
                    if let Some(m) = metrics {
                        m.queue_depth_peak
                            .fetch_max(q.jobs.len() as u64, Ordering::Relaxed);
                    }
                }
                shared.work.notify_one();
            }
            outcome => {
                // Done or panicked: hand the shard back to its batch.
                let mut r = lock_unpoisoned(&job.batch.returned);
                r.shards[job.idx] = Some(job.shard);
                if let Err(payload) = outcome {
                    r.panic.get_or_insert(payload);
                }
                r.out -= 1;
                if r.out == 0 {
                    job.batch.done.notify_one();
                }
            }
        }
    }
}

/// Deterministic chunk size for a shard's sample budget.
///
/// Chunks bound how long a worker holds one shard so P ≫ C interleaves
/// fairly, but each chunk must stay long enough to (a) amortize the
/// queue round-trip and (b) cover the `|S|·|A|` table at least once, so
/// the stall-free kernel's one-time image build on a shard's first call
/// (see `AccelPipeline::run_samples_fast`) costs at most as much as the
/// chunk's samples. The result depends only on the shard's own budget
/// and table size, never on worker count — chunk boundaries are part of
/// the deterministic schedule.
pub fn chunk_samples(budget: u64, states: usize, actions: usize) -> u64 {
    /// Target chunk: ~64K samples ≈ sub-millisecond on the fast path.
    const TARGET: u64 = 1 << 16;
    let image = (states as u64).saturating_mul(actions as u64);
    TARGET.max(image).min(budget.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;

    /// Runs `left` chunks, counting them.
    struct Countdown {
        left: u64,
        ran: u64,
    }

    impl Shard for Countdown {
        fn run_chunk(&mut self) -> bool {
            self.ran += 1;
            self.left -= 1;
            self.left > 0
        }
    }

    fn countdowns(shards: usize, chunks_each: u64) -> Vec<Countdown> {
        (0..shards)
            .map(|_| Countdown {
                left: chunks_each,
                ran: 0,
            })
            .collect()
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = ShardedExecutor::new(2);
        for _ in 0..50 {
            let (back, panic) = pool.run_shards(countdowns(3, 1));
            assert!(panic.is_none());
            assert_eq!(back.iter().map(|s| s.ran).sum::<u64>(), 3);
        }
        assert_eq!(pool.workers(), 2);
    }

    /// The planned panic of a [`Probe`], naming its shard.
    struct Planned(usize);

    /// Records the index of every chunk it runs, and counts itself into
    /// `finished` at its last chunk or at its planned panic.
    struct Probe {
        id: usize,
        chunks: u32,
        panic_at: Option<u32>,
        ran: Vec<u32>,
        finished: Arc<AtomicUsize>,
    }

    impl Shard for Probe {
        fn run_chunk(&mut self) -> bool {
            let k = self.ran.len() as u32;
            assert!(
                k < self.chunks,
                "shard {} ran after its last chunk",
                self.id
            );
            self.ran.push(k);
            let more = k + 1 < self.chunks;
            if self.panic_at == Some(k) {
                self.finished.fetch_add(1, Ordering::SeqCst);
                std::panic::panic_any(Planned(self.id));
            }
            if !more {
                self.finished.fetch_add(1, Ordering::SeqCst);
            }
            more
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random batch shapes, P < C and P ≫ C alike: every shard comes
        /// back exactly once, in submission order, having run its chunks
        /// in order; a planned panic reaches the submitter once, after
        /// every other shard finished; and the pool then runs a clean
        /// batch.
        #[test]
        fn every_shard_comes_back_once_with_its_chunks_in_order(
            workers in 1usize..5,
            chunks in prop::collection::vec(1u32..7, 0..13),
            victim in 0usize..20,
            panic_chunk in 0u32..6,
        ) {
            let pool = ShardedExecutor::new(workers);
            let finished = Arc::new(AtomicUsize::new(0));
            // At most one shard panics: `victim` past the batch means none.
            let panic_at = |id: usize| (id == victim).then(|| panic_chunk % chunks[id]);
            let shards = chunks
                .iter()
                .enumerate()
                .map(|(id, &n)| Probe {
                    id,
                    chunks: n,
                    panic_at: panic_at(id),
                    ran: Vec::new(),
                    finished: Arc::clone(&finished),
                })
                .collect();
            let (back, panic) = pool.run_shards(shards);
            prop_assert_eq!(finished.load(Ordering::SeqCst), chunks.len());
            prop_assert_eq!(back.len(), chunks.len());
            for (id, shard) in back.iter().enumerate() {
                prop_assert_eq!(shard.id, id);
                let last = panic_at(id).map_or(shard.chunks, |k| k + 1);
                prop_assert_eq!(&shard.ran, &(0..last).collect::<Vec<_>>());
            }
            match panic {
                Some(payload) => {
                    let planned = payload.downcast_ref::<Planned>().map(|p| p.0);
                    prop_assert_eq!(planned, Some(victim));
                }
                None => prop_assert!(victim >= chunks.len()),
            }

            let (clean, panic) = pool.run_shards(countdowns(workers + 1, 3));
            prop_assert!(panic.is_none());
            prop_assert!(clean.iter().all(|s| s.ran == 3 && s.left == 0));
        }
    }

    #[test]
    fn chunking_is_deterministic_and_bounded() {
        // Depends only on (budget, table size), never on worker count.
        assert_eq!(chunk_samples(1_000_000, 64, 4), 1 << 16);
        assert_eq!(chunk_samples(1_000, 64, 4), 1_000);
        assert_eq!(chunk_samples(0, 64, 4), 1);
        // Large tables widen the chunk so it still amortizes the image.
        assert_eq!(chunk_samples(10_000_000, 16_384, 8), 16_384 * 8);
    }

    #[test]
    fn instrumented_pool_accounts_chunks_and_latency() {
        let pool = ShardedExecutor::new_instrumented(2);
        let (_, panic) = pool.run_shards(countdowns(4, 3));
        assert!(panic.is_none());
        let m = pool.metrics().expect("instrumented pool exposes metrics");
        let snaps = m.worker_snapshots();
        assert_eq!(snaps.len(), 2);
        // 4 shards x 3 chunks each, every one accounted exactly once.
        assert_eq!(snaps.iter().map(|s| s.chunks).sum::<u64>(), 12);
        assert_eq!(m.chunk_service_ns().count(), 12);
        assert_eq!(m.queue_wait_ns().count(), 12);
        // 4 shards pushed at once: the queue must have reached 4 deep.
        assert!(m.queue_depth_peak() >= 4, "{}", m.queue_depth_peak());
        // Workers have been parked at least since the batch drained.
        assert!(snaps.iter().map(|s| s.idle_ns).sum::<u64>() > 0);

        let mut reg = MetricsRegistry::new();
        m.register_into(&mut reg);
        assert!(reg.get("qtaccel_executor_chunks_total").is_some());
        assert!(reg.get("qtaccel_executor_queue_depth").is_some());
        assert!(reg.get("qtaccel_executor_chunk_service_ns").is_some());
        assert!(reg.get("qtaccel_executor_queue_wait_ns").is_some());
    }

    #[test]
    fn uninstrumented_pool_carries_no_metrics() {
        let pool = ShardedExecutor::new(2);
        assert!(pool.metrics().is_none());
        // The global pool is uninstrumented too.
        assert!(ShardedExecutor::global().metrics().is_none());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        assert!(std::ptr::eq(
            ShardedExecutor::global(),
            ShardedExecutor::global()
        ));
        assert!(ShardedExecutor::global().workers() >= 1);
    }
}
