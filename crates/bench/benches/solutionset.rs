//! Criterion benchmarks of the solution-set data structure and the
//! branch-and-bound corner skips.
//!
//! `solutionset/insert` isolates the dominance query itself: inserting a
//! stream of candidates into a frontier already holding 10/100/1000 live
//! entries under one `(distribution, fusion)` key, staircase vs the legacy
//! linear scan. The candidate stream and the resulting frontier are
//! identical in both modes (that is the staircase's contract); only the
//! query cost differs.
//!
//! `optimizer/bnb` measures the full search with pruning (and with it the
//! branch-and-bound corner skips, which need the staircase) on and off on
//! the paper workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tce_bench::{paper_cost_model, paper_tree};
use tce_core::{optimize, OptimizerConfig, Solution, SolutionSet};
use tce_dist::Distribution;
use tce_expr::IndexSpace;
use tce_fusion::FusionPrefix;

fn sol(dist: Distribution, cost: f64, mem: u128, msg: u128) -> Solution {
    Solution {
        dist,
        fusion: FusionPrefix::empty(),
        comm_cost: cost,
        mem_words: mem,
        max_msg_words: msg,
        choice: None,
    }
}

/// Fill a fresh set with `n` mutually non-dominating entries under one
/// key: cost ascending, memory descending, so every entry survives.
fn staircase_of(n: u64, legacy: bool) -> (SolutionSet, Distribution) {
    let mut sp = IndexSpace::new();
    let a = sp.declare("a", 4);
    let b = sp.declare("b", 4);
    let d = Distribution::pair(a, b);
    let mut set = SolutionSet::with_mode(true, legacy);
    for i in 0..n {
        set.insert(sol(d, i as f64, u128::from(2 * n - i), 1), u128::MAX);
    }
    assert_eq!(set.live_len(), n as usize);
    (set, d)
}

fn bench_insert(c: &mut Criterion) {
    let mut g = c.benchmark_group("solutionset/insert");
    for &live in &[10u64, 100, 1000] {
        for (mode, legacy) in [("staircase", false), ("linear", true)] {
            g.bench_with_input(BenchmarkId::new(mode, live), &live, |bench, &live| {
                let (mut set, d) = staircase_of(live, legacy);
                // Probe with dominated candidates spread across the
                // cost range: every insert runs the full dominance
                // query and is rejected, so the frontier is unchanged
                // and the query path is all that is measured (the
                // shimmed criterion has no `iter_batched`, so a
                // mutating accept per iteration would measure the
                // set clone instead). Each probe's (cost, mem) sits
                // just past one specific staircase step, so exactly
                // one entry dominates it — the average case for the
                // linear scan, a binary search for the staircase.
                bench.iter(|| {
                    let mut rejected = 0usize;
                    for i in 0..64u64 {
                        let pos = i * live / 64;
                        let cost = pos as f64 + 0.25;
                        let mem = u128::from(2 * live - pos);
                        rejected += usize::from(!set.insert(sol(d, cost, mem, 1), u128::MAX));
                    }
                    assert_eq!(rejected, 64);
                    set.live_len()
                })
            });
        }
    }
    g.finish();
}

fn bench_bnb_grid(c: &mut Criterion) {
    let tree = paper_tree();
    let cm = paper_cost_model(16);
    let mut g = c.benchmark_group("optimizer/bnb");
    g.sample_size(10);
    for (name, disable_pruning) in [("pruned", false), ("unpruned", true)] {
        let cfg = OptimizerConfig { disable_pruning, ..Default::default() };
        g.bench_function(name, |b| b.iter(|| optimize(&tree, &cm, &cfg).unwrap().comm_cost));
    }
    g.finish();
}

criterion_group!(benches, bench_insert, bench_bnb_grid);
criterion_main!(benches);
