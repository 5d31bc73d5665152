//! Key-partitioned scheduling of the per-node combine blocks.
//!
//! The combine loops hand the scheduler a flat list of *blocks* — each one
//! a `(pattern, fusion-triple)` or `(distribution, pair)` item in the
//! node's serial nesting order — together with the *frontier key* every
//! block writes to: the `(result distribution, up-fusion prefix)` pair
//! that all of the block's candidates share. Workers claim whole keys
//! (largest first, from one atomic cursor) and run every block of a
//! claimed key in serial order into their own [`SolutionSet`].
//!
//! **Determinism.** Dominance only ever compares candidates of one key, so
//! a key's accept/reject history depends only on that key's candidates in
//! serial order — exactly what its worker sees. Each worker's per-key
//! frontier, corner skips and counters therefore equal the serial run's,
//! whatever the number of workers or the order in which keys were claimed.
//! The merge, [`SolutionSet::gather`], moves the worker arenas into one
//! arena in serial block order (each block's accepted entries are one
//! contiguous run of its worker's arena), which rebuilds the serial storage
//! order, live lists and staircases: costs, `sol_index` back-pointers,
//! `best_index` tie-breaks and every counter, the `dp.bnb_*` family
//! included. Only the memo counters (`dp.memo_*`) still depend on the
//! interleaving — see [`tce_obs::NONDETERMINISTIC_COUNTERS`] and DESIGN.md
//! §11.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::solution::SolutionSet;

/// Default per-extra-worker amortization floor: spawn another worker only
/// per this much *predicted* serial enumeration time (ns). Nodes below the
/// floor run inline, so the multi-thread wall clock cannot fall measurably
/// behind serial — the regression `BENCH_5.json` recorded. 1 ms was chosen
/// by an interleaved A/B against the earlier 10 ms (EXPERIMENTS.md X13):
/// with the gather merge it puts the mid-sized enlarged-space nodes on
/// more workers, and the heaviest interactive requests were not slower.
pub(crate) const DEFAULT_SPAWN_AMORT_NS: u64 = 1_000_000;

/// How a node's candidate enumeration ran (surfaced as span args and
/// scheduler counters).
pub(crate) struct EnumStats {
    /// Worker threads actually used (1 = ran inline).
    pub workers: usize,
    /// Time spent gathering worker-local frontiers, microseconds.
    pub merge_us: u128,
    /// Combine blocks scheduled (= the serial item count; deterministic).
    pub blocks: u64,
    /// Per-worker busy time, microseconds (empty for inline runs).
    pub busy_us: Vec<u64>,
}

/// Adaptive spawn threshold: an EWMA of measured enumeration cost per
/// block, fed back after every node, replacing the old static
/// `MIN_ITEMS_PER_WORKER`. The worker count it picks affects wall clock
/// only — any count yields bit-identical results — so learning from
/// wall-clock measurements cannot perturb the search.
struct SpawnModel {
    ns_per_block: f64,
    calibrated: bool,
}

impl SpawnModel {
    fn workers_for(&self, blocks: usize, threads: usize, amort_ns: u64) -> usize {
        if threads <= 1 || blocks == 0 {
            return 1;
        }
        if amort_ns == 0 {
            // Forced maximal spawning (tests and fuzz oracles exercise the
            // merge machinery even on nodes the model would run inline).
            return threads.min(blocks).max(1);
        }
        if !self.calibrated {
            // No measurement yet (first node of a run): run inline.
            // Mispredicting "spawn" costs real merge time, while running
            // inline costs at most the first node's speedup.
            return 1;
        }
        let predicted_ns = self.ns_per_block * blocks as f64;
        (((predicted_ns / amort_ns as f64) as usize).min(blocks)).clamp(1, threads)
    }

    fn record(&mut self, blocks: usize, busy_ns: f64) {
        if blocks == 0 || busy_ns <= 0.0 {
            return;
        }
        let per = busy_ns / blocks as f64;
        self.ns_per_block = if self.calibrated { 0.5 * self.ns_per_block + 0.5 * per } else { per };
        self.calibrated = true;
    }
}

/// Per-node enumeration driver owned by one `optimize` run: the
/// worker-count policy (the adaptive [`SpawnModel`]) in front of the
/// key-partitioned enumeration.
pub(crate) struct Scheduler {
    threads: usize,
    /// Hardware threads actually available; the adaptive path never
    /// spawns past this (workers beyond the core count only add context
    /// switching and merge cost to a CPU-bound search — the worker count
    /// never changes results, only wall clock). Forced spawning
    /// (`amort_ns == 0`) bypasses the cap so determinism tests exercise
    /// the merge machinery even on single-core machines.
    hw: usize,
    /// Per-extra-worker amortization floor, ns (0 = always spawn).
    amort_ns: u64,
    model: SpawnModel,
}

impl Scheduler {
    pub fn new(threads: usize, cfg: &crate::dp::OptimizerConfig) -> Self {
        Self {
            threads,
            hw: std::thread::available_parallelism().map_or(usize::MAX, |n| n.get()),
            amort_ns: cfg.spawn_amort_ns.unwrap_or(DEFAULT_SPAWN_AMORT_NS),
            model: SpawnModel { ns_per_block: 0.0, calibrated: false },
        }
    }

    /// Run `block_fn` over every item of `items` (each item one combine
    /// block), filtered into `out` exactly as the serial loop would.
    /// `key_of` names the frontier key an item's candidates are inserted
    /// under; every candidate of the item must use that one key. `mk_state`
    /// builds one per-worker scratch state (slate caches, kernel buffers)
    /// that persists across that worker's blocks — pure memoization, shared
    /// by the serial and the parallel path.
    pub fn run<T: Sync, K: Hash + Eq, S: Send>(
        &mut self,
        items: &[T],
        key_of: impl Fn(&T) -> K,
        out: &mut SolutionSet,
        mk_state: impl Fn() -> S + Sync,
        block_fn: impl Fn(&T, &mut SolutionSet, &mut S) + Sync,
    ) -> EnumStats {
        let blocks = items.len() as u64;
        // Forced spawning ignores the hardware cap (see `hw`).
        let budget = if self.amort_ns == 0 { self.threads } else { self.threads.min(self.hw) };
        let mut workers = self.model.workers_for(items.len(), budget, self.amort_ns);
        let mut groups = Vec::new();
        if workers > 1 {
            groups = key_groups(items, key_of);
            workers = workers.min(groups.len());
        }
        if workers <= 1 {
            let t0 = Instant::now();
            let mut state = mk_state();
            for item in items {
                block_fn(item, out, &mut state);
            }
            self.model.record(items.len(), t0.elapsed().as_nanos() as f64);
            return EnumStats { workers: 1, merge_us: 0, blocks, busy_us: Vec::new() };
        }
        let stats = run_keyed(items, groups, workers, out, &mk_state, &block_fn);
        // Summed busy time is the serial-equivalent enumeration cost (the
        // same work, minus racing memo refills), which is what the spawn
        // decision needs to predict.
        let busy_ns: u64 = stats.busy_us.iter().sum::<u64>().saturating_mul(1_000);
        self.model.record(items.len(), busy_ns as f64);
        EnumStats { blocks, ..stats }
    }
}

/// Item indices grouped by frontier key, each group in serial order, the
/// groups ordered by descending size (ties by first appearance) so the
/// biggest keys are claimed first and the small ones fill in the tail.
fn key_groups<T, K: Hash + Eq>(items: &[T], key_of: impl Fn(&T) -> K) -> Vec<Vec<u32>> {
    let mut slot: HashMap<K, usize> = HashMap::new();
    let mut groups: Vec<Vec<u32>> = Vec::new();
    for (i, item) in items.iter().enumerate() {
        let g = *slot.entry(key_of(item)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i as u32);
    }
    groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
    groups
}

/// The parallel path: `workers` threads claim whole key groups from one
/// cursor and run each group's blocks in serial order into a worker-local
/// set, recording the arena run every block appended. The runs are then
/// gathered in serial block order.
fn run_keyed<T: Sync, S: Send>(
    items: &[T],
    groups: Vec<Vec<u32>>,
    workers: usize,
    out: &mut SolutionSet,
    mk_state: &(impl Fn() -> S + Sync),
    block_fn: &(impl Fn(&T, &mut SolutionSet, &mut S) + Sync),
) -> EnumStats {
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<SolutionSet> = Vec::with_capacity(workers);
    let mut runs = vec![(0u32, 0u32, 0u32); items.len()];
    let mut busy_us = vec![0u64; workers];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, groups) = (&cursor, &groups);
                let mut local = out.empty_like();
                s.spawn(move || {
                    let t0 = Instant::now();
                    let mut state = mk_state();
                    // (item, arena start, arena end) per block run here.
                    let mut spans: Vec<(u32, u32, u32)> = Vec::new();
                    // `Relaxed` suffices: the cursor only hands out
                    // indices; `groups` was built before the spawn and the
                    // results travel back through `join`.
                    while let Some(group) = groups.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        for &i in group {
                            let start = local.len() as u32;
                            block_fn(&items[i as usize], &mut local, &mut state);
                            spans.push((i, start, local.len() as u32));
                        }
                    }
                    (local, spans, t0.elapsed().as_micros() as u64)
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            let (local, spans, us) = h.join().expect("search worker panicked");
            for (i, start, end) in spans {
                runs[i as usize] = (w as u32, start, end);
            }
            parts.push(local);
            busy_us[w] = us;
        }
    });
    let merge_start = Instant::now();
    out.gather(parts, &runs);
    EnumStats { workers, merge_us: merge_start.elapsed().as_micros(), blocks: 0, busy_us }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncalibrated_model_runs_inline() {
        let m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        assert_eq!(m.workers_for(10, 4, DEFAULT_SPAWN_AMORT_NS), 1);
        assert_eq!(m.workers_for(64 * 3, 4, DEFAULT_SPAWN_AMORT_NS), 1);
        assert_eq!(m.workers_for(1 << 20, 4, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    #[test]
    fn calibrated_model_scales_with_predicted_cost() {
        let mut m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        // 1e5 ns per block measured.
        m.record(100, 1e7);
        // 10 blocks → 1e6 ns predicted → exactly the amortization floor.
        assert_eq!(m.workers_for(10, 8, DEFAULT_SPAWN_AMORT_NS), 1);
        // 50 blocks → 5e6 ns predicted → 5 workers.
        assert_eq!(m.workers_for(50, 8, DEFAULT_SPAWN_AMORT_NS), 5);
        // Capped by the thread budget.
        assert_eq!(m.workers_for(1000, 8, DEFAULT_SPAWN_AMORT_NS), 8);
        // Tiny nodes stay inline no matter the calibration.
        assert_eq!(m.workers_for(2, 8, DEFAULT_SPAWN_AMORT_NS), 1);
    }

    #[test]
    fn forced_spawning_ignores_the_model() {
        let m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        assert_eq!(m.workers_for(3, 8, 0), 3);
        assert_eq!(m.workers_for(100, 8, 0), 8);
    }

    #[test]
    fn ewma_tracks_drifting_block_cost() {
        let mut m = SpawnModel { ns_per_block: 0.0, calibrated: false };
        m.record(10, 1e7); // 1e6 ns/block
        m.record(10, 3e7); // 3e6 ns/block → EWMA 2e6
        assert!((m.ns_per_block - 2e6).abs() < 1.0, "{}", m.ns_per_block);
    }

    #[test]
    fn key_groups_keep_serial_order_and_put_big_keys_first() {
        let items = [3u8, 1, 3, 2, 1, 3, 2, 2, 2];
        let groups = key_groups(&items, |&k| k);
        assert_eq!(groups, vec![vec![3, 6, 7, 8], vec![0, 2, 5], vec![1, 4]]);
    }
}
