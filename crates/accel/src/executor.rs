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
//!   pipeline). Each shard is re-entered chunk by chunk — the job
//!   callback runs one bounded chunk of samples and reports whether
//!   work remains, and unfinished shards requeue at the *tail*. With
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
//!
//! Scoped borrows: jobs may borrow the caller's data (`&mut
//! AccelPipeline`, `&Environment`). Soundness is the classic
//! scoped-pool latch protocol — [`ShardedExecutor::run_shards`] erases
//! the job lifetime but does not return until every shard has finished
//! and every worker has released the batch (the completion latch is
//! decremented under the batch mutex, and the submitter's wait holds
//! that mutex), so no worker can observe the borrow after `run_shards`
//! returns. A panicking shard is recorded, the batch drains, and the
//! payload is resumed on the submitting thread.
//!
//! [`CounterBank`]: qtaccel_telemetry::CounterBank

use qtaccel_telemetry::{Histogram, MetricsRegistry};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One shard of a batch: called repeatedly, runs one bounded chunk of
/// work per call, returns `true` while work remains.
pub type ShardJob<'scope> = Box<dyn FnMut() -> bool + Send + 'scope>;

/// Lock a mutex, shrugging off poisoning (a panicked shard has already
/// been recorded by the batch protocol; its data is never reused).
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-batch control block, stack-allocated in `run_shards`.
///
/// Workers reach it through a raw pointer carried by the queued jobs;
/// the latch protocol above guarantees no worker dereferences it after
/// `run_shards` returns.
struct BatchCtl {
    /// The shard callbacks, lifetime-erased. Each mutex is held for
    /// exactly one chunk at a time (a shard is never queued twice, so
    /// these locks are uncontended — they exist to make the erased
    /// `FnMut` calls sound, not to arbitrate).
    shards: Vec<Mutex<ShardJob<'static>>>,
    /// Completion latch: shards not yet finished.
    remaining: Mutex<usize>,
    done: Condvar,
    /// First panic payload out of any shard, resumed by the submitter.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A queued chunk: "run the next chunk of shard `idx` of batch `batch`".
struct QueuedChunk {
    batch: *const BatchCtl,
    idx: usize,
    /// Enqueue timestamp, set only on instrumented pools (feeds the
    /// queue-wait histogram).
    enqueued: Option<Instant>,
}
// SAFETY: the pointee outlives every queued chunk (latch protocol) and
// all shared access goes through the BatchCtl mutexes.
unsafe impl Send for QueuedChunk {}

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
/// atomics: they are statistics, ordered by the batch latch when read.
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

/// Worker-count override for the process-global pool (0 = auto).
static DEFAULT_WORKERS: AtomicUsize = AtomicUsize::new(0);
static GLOBAL: OnceLock<ShardedExecutor> = OnceLock::new();

/// The host's available parallelism (1 if unreadable).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the worker count the process-global pool will be created with.
/// Takes effect only before the first [`ShardedExecutor::global`] call;
/// returns whether the override was applied in time. `0` restores auto
/// sizing ([`host_parallelism`]).
pub fn set_default_workers(n: usize) -> bool {
    DEFAULT_WORKERS.store(n, Ordering::SeqCst);
    GLOBAL.get().is_none()
}

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
        Self::new(host_parallelism())
    }

    /// The process-global pool, created on first use with
    /// [`host_parallelism`] workers (or the [`set_default_workers`]
    /// override). Shared by every [`IndependentPipelines`] instance that
    /// was not given its own pool, so repeated short training calls
    /// never pay thread-creation cost.
    ///
    /// [`IndependentPipelines`]: crate::multi::IndependentPipelines
    pub fn global() -> &'static ShardedExecutor {
        GLOBAL.get_or_init(|| {
            let n = DEFAULT_WORKERS.load(Ordering::SeqCst);
            if n == 0 {
                Self::with_default_parallelism()
            } else {
                Self::new(n)
            }
        })
    }

    /// Number of persistent workers.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Run a batch of shard jobs to completion.
    ///
    /// Each job is called repeatedly — one bounded chunk per call —
    /// until it returns `false`; unfinished shards requeue at the queue
    /// tail so all shards progress fairly even when they outnumber
    /// workers. Blocks until every shard has finished. If a shard
    /// panics, the remaining shards still run to completion and the
    /// first panic payload is resumed here.
    ///
    /// Must not be called from inside a shard job running on the same
    /// pool (the nested batch could starve with every worker busy).
    pub fn run_shards(&self, shards: Vec<ShardJob<'_>>) {
        if shards.is_empty() {
            return;
        }
        let n = shards.len();
        let ctl = BatchCtl {
            // SAFETY: lifetime erasure. `ctl` lives on this stack frame
            // and the latch wait below does not return until every
            // worker has finished with every shard and released the
            // latch mutex — no borrow escapes the true scope.
            shards: shards
                .into_iter()
                .map(|j| {
                    Mutex::new(unsafe {
                        std::mem::transmute::<ShardJob<'_>, ShardJob<'static>>(j)
                    })
                })
                .collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
            panic: Mutex::new(None),
        };

        {
            let mut q = lock_unpoisoned(&self.shared.queue);
            let enqueued = self.shared.metrics.is_some().then(Instant::now);
            for idx in 0..n {
                q.jobs.push_back(QueuedChunk {
                    batch: &ctl,
                    idx,
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

        let mut remaining = lock_unpoisoned(&ctl.remaining);
        while *remaining > 0 {
            remaining = ctl
                .done
                .wait(remaining)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);

        let payload = lock_unpoisoned(&ctl.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
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
        let job = {
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

        // SAFETY: the batch outlives the job (latch protocol).
        let batch = unsafe { &*job.batch };
        let busy_start = metrics.map(|_| Instant::now());
        let outcome = {
            let mut shard = lock_unpoisoned(&batch.shards[job.idx]);
            catch_unwind(AssertUnwindSafe(&mut *shard))
        };
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
                    let mut job = job;
                    job.enqueued = metrics.map(|_| Instant::now());
                    q.jobs.push_back(job);
                    if let Some(m) = metrics {
                        m.queue_depth_peak
                            .fetch_max(q.jobs.len() as u64, Ordering::Relaxed);
                    }
                }
                shared.work.notify_one();
            }
            Ok(false) | Err(_) => {
                if let Err(payload) = outcome {
                    lock_unpoisoned(&batch.panic).get_or_insert(payload);
                }
                // Finish the shard under the latch mutex; after this
                // guard drops, `batch` is never touched again by this
                // worker — the submitter may already be returning.
                let mut remaining = lock_unpoisoned(&batch.remaining);
                *remaining -= 1;
                if *remaining == 0 {
                    batch.done.notify_all();
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
    use std::sync::atomic::AtomicU64;

    fn counting_shards<'a>(
        counters: &'a [AtomicU64],
        chunks_each: u64,
    ) -> Vec<ShardJob<'a>> {
        counters
            .iter()
            .map(|c| {
                let mut left = chunks_each;
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                    left -= 1;
                    left > 0
                }) as ShardJob<'a>
            })
            .collect()
    }

    #[test]
    fn runs_all_chunks_of_all_shards() {
        for threads in [1, 2, 3, 7] {
            let pool = ShardedExecutor::new(threads);
            let counters: Vec<AtomicU64> = (0..16).map(|_| AtomicU64::new(0)).collect();
            pool.run_shards(counting_shards(&counters, 5));
            for (i, c) in counters.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 5, "shard {i} @ {threads} threads");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = ShardedExecutor::new(2);
        let c = AtomicU64::new(0);
        for _ in 0..50 {
            let shards: Vec<ShardJob<'_>> = (0..3)
                .map(|_| {
                    Box::new(|| {
                        c.fetch_add(1, Ordering::SeqCst);
                        false
                    }) as ShardJob<'_>
                })
                .collect();
            pool.run_shards(shards);
        }
        assert_eq!(c.load(Ordering::SeqCst), 150);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn scoped_mutable_borrows_are_visible_after_run() {
        let pool = ShardedExecutor::new(3);
        let mut data = vec![0u64; 8];
        let shards: Vec<ShardJob<'_>> = data
            .iter_mut()
            .map(|slot| {
                let mut calls = 0u64;
                Box::new(move || {
                    calls += 1;
                    *slot += calls;
                    calls < 4
                }) as ShardJob<'_>
            })
            .collect();
        pool.run_shards(shards);
        assert_eq!(data, vec![1 + 2 + 3 + 4; 8]);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = ShardedExecutor::new(1);
        pool.run_shards(Vec::new());
    }

    #[test]
    fn shard_panic_propagates_after_batch_drains() {
        let pool = ShardedExecutor::new(2);
        let survivors = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut shards: Vec<ShardJob<'_>> = vec![Box::new(|| panic!("shard boom"))];
            for _ in 0..4 {
                shards.push(Box::new(|| {
                    survivors.fetch_add(1, Ordering::SeqCst);
                    false
                }));
            }
            pool.run_shards(shards);
        }));
        assert!(caught.is_err(), "panic must resurface on the submitter");
        assert_eq!(survivors.load(Ordering::SeqCst), 4, "other shards still ran");
        // The pool survives a panicked batch.
        let c = AtomicU64::new(0);
        pool.run_shards(vec![Box::new(|| {
            c.fetch_add(1, Ordering::SeqCst);
            false
        })]);
        assert_eq!(c.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chunking_is_deterministic_and_bounded() {
        // Depends only on (budget, table size), never on worker count.
        assert_eq!(chunk_samples(1_000_000, 64, 4), 1 << 16);
        assert_eq!(chunk_samples(1_000, 64, 4), 1_000);
        assert_eq!(chunk_samples(0, 64, 4), 1);
        // Large tables widen the chunk so the fused image still engages.
        assert_eq!(chunk_samples(10_000_000, 16_384, 8), 16_384 * 8);
    }

    #[test]
    fn instrumented_pool_accounts_chunks_and_latency() {
        let pool = ShardedExecutor::new_instrumented(2);
        let counters: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        pool.run_shards(counting_shards(&counters, 3));
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
        let a = ShardedExecutor::global() as *const _;
        let b = ShardedExecutor::global() as *const _;
        assert_eq!(a, b);
        assert!(ShardedExecutor::global().workers() >= 1);
        // Too late to resize once created.
        assert!(!set_default_workers(4));
    }
}
