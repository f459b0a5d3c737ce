//! # ckpt-par — a scoped work-stealing pool with deterministic ordered merge
//!
//! The checkpoint pipeline wants thread-level parallelism (per-page
//! encoding, per-rank image encoding, independent Monte-Carlo trials) but
//! the repo's outputs are pinned byte-for-byte, so parallel stages must be
//! **observationally serial**: results are merged in submission order no
//! matter which worker finished first. This crate provides exactly that —
//! and nothing else — on plain `std::thread`, matching the vendored-shims
//! policy (no external dependencies).
//!
//! One entry point, [`Pool::par_map_ordered`]: map a known list of items;
//! items are pre-partitioned across workers and idle workers steal half of
//! a victim's remaining share (classic work stealing, coarsened to ranges).
//! A caller whose items are small (pages) groups them into runs of about
//! [`PAR_MIN_BYTES`] first, so one task carries enough work to pay for its
//! queue pop and merge-board slot; a capture encodes its pages that way
//! straight out of the frozen address space, with nothing staged.
//!
//! A pool of size 1 (the default on single-CPU hosts) executes the exact
//! serial path inline — no threads are spawned, no locks are taken beyond
//! counter bookkeeping — so `workers = 1` reproduces the pre-parallel
//! behavior precisely.
//!
//! **Threads only where they pay.** Threads are scoped per call, so every
//! parallel call pays a spawn and a join (tens of µs on a 2-core host)
//! whatever it carries. A data-path caller therefore states the bytes its
//! call moves through [`Pool::for_bytes`]; a call under [`PAR_MIN_BYTES`]
//! takes the width-1 path on the caller thread, anything larger spreads as
//! before. The gate counts bytes, not items, because the layers' items
//! range from a 6.6 KiB node copy to a 64 KiB parity row: three node copies
//! of a 21 KiB chunk lose 45–65 µs to the spawn at width 2, while an image
//! body written and CRC'd in runs of the same 64 KiB is even at two runs
//! and wins from four (`examples/pool_overhead`).
//! Calls whose items are whole jobs or experiments (the bench suite,
//! `analytics`, `scale_round`) call the pool directly and are never gated.
//! Either way the results, their order and the [`PoolStats`] task count are
//! those of the serial path; only host time differs.
//!
//! Determinism rules (also spelled out in `DESIGN.md`):
//!
//! 1. worker closures must be pure functions of their item (worker-local
//!    scratch state is re-initialized per worker and must not leak between
//!    items in an order-observable way);
//! 2. results are merged in submission order (`MergeBoard` semantics);
//! 3. anything that charges virtual time or appends to a shared log stays
//!    on the caller thread, outside the pool.
//!
//! Observability: every pool call accumulates [`PoolStats`] — tasks run,
//! successful steals, and merge stalls (results that completed before an
//! earlier-submitted item and had to be parked). These feed the
//! `TraceReport` parallel-encode counters.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A call sized under this many bytes ([`Pool::for_bytes`]) runs on the
/// caller thread at any pool width.
///
/// It is also the image layers' run: one pool task per this many bytes of
/// pages or page records, so such a call spreads from two runs on.
///
/// Set from `examples/pool_overhead` (shared 2-core host, µs per call at
/// width 1 → width 2, two runs): three node copies of 64 KiB in all go 2–3
/// → 47–67, of 256 KiB 61–91 → 65–119. Page encoding in runs (0.2–0.3 µs
/// a page since the RLE bound) loses to the spawn up to 1 MiB. The
/// cheapest crossover is `encode_with_pool`, CRC-bound: 128 KiB (two
/// runs) 122 → 137–143, 256 KiB 240–258 → 221–275, 512 KiB 479–529 →
/// 366–416. Below 64 KiB nothing gains from a second thread; a larger run
/// would hold the body write back to larger images.
pub const PAR_MIN_BYTES: usize = 64 * 1024;

/// Cumulative counters for one [`Pool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Items executed (parallel or serial path).
    pub tasks: u64,
    /// Successful steal operations (an idle worker took half of a
    /// victim's remaining items).
    pub steals: u64,
    /// Results that completed out of submission order and were parked
    /// until every earlier result landed.
    pub merge_stalls: u64,
}

impl PoolStats {
    /// Counter delta (`self` taken after `earlier`).
    pub fn since(self, earlier: PoolStats) -> PoolStats {
        PoolStats {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: self.steals.saturating_sub(earlier.steals),
            merge_stalls: self.merge_stalls.saturating_sub(earlier.merge_stalls),
        }
    }
}

#[derive(Default)]
struct Counters {
    tasks: AtomicU64,
    steals: AtomicU64,
    merge_stalls: AtomicU64,
}

/// A fixed-width pool. Threads are scoped per call (`std::thread::scope`),
/// so the pool itself is just a width plus counters — cheap to share via
/// [`Arc`], safe to use from multiple threads at once (each call carries
/// its own queues and merge board).
pub struct Pool {
    workers: usize,
    counters: Counters,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl Pool {
    /// A pool that runs `workers` tasks concurrently. `0` is clamped to 1;
    /// 1 means "the exact serial path, inline on the caller".
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
            counters: Counters::default(),
        }
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative counters since the pool was created.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            tasks: self.counters.tasks.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            merge_stalls: self.counters.merge_stalls.load(Ordering::Relaxed),
        }
    }

    fn flush(&self, tasks: u64, steals: u64, stalls: u64) {
        if tasks > 0 {
            self.counters.tasks.fetch_add(tasks, Ordering::Relaxed);
        }
        if steals > 0 {
            self.counters.steals.fetch_add(steals, Ordering::Relaxed);
        }
        if stalls > 0 {
            self.counters.merge_stalls.fetch_add(stalls, Ordering::Relaxed);
        }
    }

    /// This pool for one call that moves `bytes` bytes in all (the payload
    /// its items read, summed): the full width from [`PAR_MIN_BYTES`] up,
    /// the caller thread alone below it. Counters land on this pool.
    pub fn for_bytes(&self, bytes: usize) -> SizedCall<'_> {
        let width = if bytes < PAR_MIN_BYTES { 1 } else { self.workers };
        SizedCall { pool: self, width }
    }

    /// Map `items` through `f`, returning results in submission order.
    ///
    /// `init` builds one worker-local scratch value per worker (e.g. a
    /// reusable RLE buffer); `f` receives `(scratch, index, item)`.
    /// Items are pre-partitioned into contiguous runs, one per worker;
    /// an idle worker steals the back half of the fullest victim's run.
    pub fn par_map_ordered<T, S, R, I, F>(&self, items: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> R + Sync,
    {
        let call = SizedCall {
            pool: self,
            width: self.workers,
        };
        call.par_map_ordered(items, init, f)
    }
}

/// A [`Pool`] for one call of a stated size ([`Pool::for_bytes`]): the
/// same entry point, at the pool's width or on the caller alone.
#[derive(Clone, Copy)]
pub struct SizedCall<'a> {
    pool: &'a Pool,
    width: usize,
}

impl SizedCall<'_> {
    /// [`Pool::par_map_ordered`] at this call's width.
    pub fn par_map_ordered<T, S, R, I, F>(self, items: Vec<T>, init: I, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, T) -> R + Sync,
    {
        let n = items.len();
        if self.width <= 1 || n <= 1 {
            let mut scratch = init();
            let out: Vec<R> = items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(&mut scratch, i, t))
                .collect();
            self.pool.flush(n as u64, 0, 0);
            return out;
        }
        let w = self.width.min(n);
        // Contiguous partitions: worker k owns indices [k*n/w, (k+1)*n/w).
        let mut queues: Vec<Mutex<VecDeque<(usize, T)>>> = Vec::with_capacity(w);
        {
            let mut items = items.into_iter().enumerate();
            for k in 0..w {
                let lo = k * n / w;
                let hi = (k + 1) * n / w;
                let q: VecDeque<(usize, T)> = items.by_ref().take(hi - lo).collect();
                queues.push(Mutex::new(q));
            }
        }
        let board = Mutex::new(MergeBoard::with_capacity(n));
        let (tasks, steals, stalls) = run_stealing_workers(w, &queues, &board, &init, &f);
        self.pool.flush(tasks, steals, stalls);
        board.into_inner().unwrap().into_ordered()
    }
}

/// Run `w` stealing workers over pre-partitioned queues. Worker 0 is the
/// caller thread. Returns (tasks, steals, merge stalls).
fn run_stealing_workers<T, S, R, I, F>(
    w: usize,
    queues: &[Mutex<VecDeque<(usize, T)>>],
    board: &Mutex<MergeBoard<R>>,
    init: &I,
    f: &F,
) -> (u64, u64, u64)
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let worker = |me: usize| -> (u64, u64, u64) {
        let mut scratch = init();
        let (mut tasks, mut steals, mut stalls) = (0u64, 0u64, 0u64);
        loop {
            // Own queue first (front: submission order, cache-warm).
            let item = queues[me].lock().unwrap().pop_front();
            let (idx, item) = match item {
                Some(it) => it,
                None => {
                    // Steal the back half of the fullest victim.
                    let mut best: Option<(usize, usize)> = None;
                    for (v, q) in queues.iter().enumerate() {
                        if v == me {
                            continue;
                        }
                        let len = q.lock().unwrap().len();
                        if len > 0 && best.map(|(_, l)| len > l).unwrap_or(true) {
                            best = Some((v, len));
                        }
                    }
                    let Some((victim, _)) = best else { break };
                    let stolen = {
                        let mut vq = queues[victim].lock().unwrap();
                        let len = vq.len();
                        if len == 0 {
                            continue; // raced; rescan
                        }
                        vq.split_off(len - len.div_ceil(2))
                    };
                    steals += 1;
                    let mut own = queues[me].lock().unwrap();
                    own.extend(stolen);
                    continue;
                }
            };
            let r = f(&mut scratch, idx, item);
            tasks += 1;
            stalls += board.lock().unwrap().place(idx, r);
        }
        (tasks, steals, stalls)
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(w - 1);
        for me in 1..w {
            handles.push(scope.spawn(move || worker(me)));
        }
        let (mut tasks, mut steals, mut stalls) = worker(0);
        for h in handles {
            let (t, s, m) = h.join().expect("ckpt-par worker panicked");
            tasks += t;
            steals += s;
            stalls += m;
        }
        (tasks, steals, stalls)
    })
}

/// Ordered-merge state: completed results parked by index, plus the
/// cursor of the next index an in-order consumer would emit. A result
/// arriving ahead of the cursor is a **merge stall** (it waited on an
/// earlier item), which is what the trace counter reports.
struct MergeBoard<R> {
    slots: Vec<Option<R>>,
    next: usize,
}

impl<R> MergeBoard<R> {
    fn with_capacity(n: usize) -> Self {
        let slots = (0..n).map(|_| None).collect();
        MergeBoard { slots, next: 0 }
    }

    /// Place a completed result; returns 1 if it stalled (arrived out of
    /// submission order), 0 otherwise.
    fn place(&mut self, idx: usize, r: R) -> u64 {
        debug_assert!(self.slots[idx].is_none(), "duplicate index {idx}");
        self.slots[idx] = Some(r);
        if idx == self.next {
            while self.next < self.slots.len() && self.slots[self.next].is_some() {
                self.next += 1;
            }
            0
        } else {
            1
        }
    }

    fn into_ordered(self) -> Vec<R> {
        self.slots
            .into_iter()
            .map(|s| s.expect("ckpt-par: missing result slot"))
            .collect()
    }
}

static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();

/// The process-wide default pool. Width = `CKPT_PAR_WORKERS` if set, else
/// the host's available parallelism (1 on a single-CPU host, which makes
/// every default-configured pipeline take the exact serial path).
pub fn global() -> &'static Arc<Pool> {
    GLOBAL.get_or_init(|| {
        let w = std::env::var("CKPT_PAR_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        Arc::new(Pool::new(w))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_ref(n: usize) -> Vec<u64> {
        (0..n).map(|i| (i as u64).wrapping_mul(0x9E37_79B9) ^ 17).collect()
    }

    #[test]
    fn ordered_merge_matches_serial_for_all_widths() {
        for w in [1usize, 2, 3, 4, 8] {
            let pool = Pool::new(w);
            let items: Vec<u64> = (0..257).map(|i| i as u64).collect();
            let got = pool.par_map_ordered(
                items,
                || (),
                |_, i, x| {
                    // Skew the work so completion order differs from
                    // submission order under real parallelism.
                    let mut acc = x.wrapping_mul(0x9E37_79B9) ^ 17;
                    for _ in 0..((257 - i) % 97) * 50 {
                        acc = std::hint::black_box(acc);
                    }
                    acc
                },
            );
            assert_eq!(got, serial_ref(257), "width {w}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = pool.par_map_ordered(Vec::<u32>::new(), || (), |_, _, x| x);
        assert!(empty.is_empty());
        let one = pool.par_map_ordered(vec![7u32], || (), |_, _, x| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn task_counter_counts_every_item() {
        let pool = Pool::new(3);
        let before = pool.stats();
        pool.par_map_ordered((0..500u32).collect(), || (), |_, _, x| x);
        let d = pool.stats().since(before);
        assert_eq!(d.tasks, 500);
    }

    #[test]
    fn serial_pool_spawns_no_overhead_counters() {
        let pool = Pool::new(1);
        pool.par_map_ordered((0..10u32).collect(), || (), |_, _, x| x);
        let s = pool.stats();
        assert_eq!(s.tasks, 10);
        assert_eq!(s.steals, 0);
        assert_eq!(s.merge_stalls, 0);
    }

    #[test]
    fn worker_local_scratch_is_isolated_per_worker() {
        // The scratch closure must not observe cross-worker state; verify
        // results depend only on the item, not on scheduling.
        let pool = Pool::new(4);
        let a = pool.par_map_ordered(
            (0..100u64).collect(),
            Vec::<u8>::new,
            |scratch, _, x| {
                scratch.clear();
                scratch.extend_from_slice(&x.to_le_bytes());
                u64::from_le_bytes(scratch[..8].try_into().unwrap())
            },
        );
        assert_eq!(a, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = Arc::as_ptr(global());
        let b = Arc::as_ptr(global());
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
    }

    #[test]
    fn stats_since_saturates() {
        let newer = PoolStats {
            tasks: 5,
            steals: 1,
            merge_stalls: 0,
        };
        let older = PoolStats {
            tasks: 9,
            steals: 0,
            merge_stalls: 0,
        };
        let d = newer.since(older);
        assert_eq!(d.tasks, 0);
        assert_eq!(d.steals, 1);
    }

    /// Runs `call` on a thread of its own and waits at most 10 s for it,
    /// so a call that hangs fails the test instead of hanging the suite.
    fn within_10s<R: Send + 'static>(call: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = std::thread::spawn(move || {
            let _ = tx.send(call());
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the call did not return within 10 s");
        caller.join().expect("the call's thread panicked");
        result
    }

    fn distinct<T: Eq + std::hash::Hash>(ids: Vec<T>) -> usize {
        ids.into_iter().collect::<std::collections::HashSet<_>>().len()
    }

    #[test]
    fn sized_calls_match_serial_on_both_sides_of_the_gate() {
        let want: Vec<u64> = (0..64).map(|x| x * 3 + 1).collect();
        for bytes in [PAR_MIN_BYTES - 1, PAR_MIN_BYTES] {
            for w in [1usize, 2, 4, 8] {
                let pool = Pool::new(w);
                let call = pool.for_bytes(bytes);
                let mapped = call.par_map_ordered((0..64u64).collect(), || (), |_, _, x| x * 3 + 1);
                assert_eq!(mapped, want, "{bytes} B, width {w}");
                // Gated or not, every item counts as a task of this pool.
                assert_eq!(pool.stats().tasks, 64, "{bytes} B, width {w}");
            }
        }
    }

    #[test]
    fn a_call_under_the_gate_runs_on_the_caller() {
        let pool = Pool::new(8);
        let me = std::thread::current().id();
        let call = pool.for_bytes(PAR_MIN_BYTES - 1);
        let here = |_: &mut (), _, _: u32| std::thread::current().id();
        let mapped = call.par_map_ordered((0..64).collect(), || (), here);
        assert!(mapped.iter().all(|id| *id == me));
    }

    /// Each item of a call at the gate waits on a barrier as wide as the
    /// pool, which opens only once that many threads hold an item at the
    /// same time: the call returns only if it spread its items, and no
    /// timing decides the outcome.
    #[test]
    fn a_call_at_the_gate_spreads_its_items() {
        for w in [2usize, 4] {
            let spread = within_10s(move || {
                let pool = Pool::new(w);
                let barrier = std::sync::Barrier::new(w);
                let meet = |_: &mut (), _, _: usize| {
                    barrier.wait();
                    std::thread::current().id()
                };
                let call = pool.for_bytes(PAR_MIN_BYTES);
                distinct(call.par_map_ordered((0..w).collect(), || (), meet))
            });
            assert_eq!(spread, w, "width {w}");
        }
    }
}
