//! The tracked bench trajectory behind `tce bench`.
//!
//! Runs a fixed grid of search scenarios — the standard workload set, the
//! enlarged-space configuration, and the `--no-pruning` ablation, each at
//! 1/2/4 worker threads — and reports wall-clock plus the full search
//! counter set as a schema-stable JSON document (`BENCH_<N>.json`, see the
//! README for the schema). Two plan-cache cells additionally run cold
//! (search + store) and warm (disk hit + revalidation) through a fresh
//! level-2 cache, reporting both walls. CI runs the `--smoke` subset and
//! fails the build when the enlarged-space search regresses more than 25%
//! against the committed baseline, when any multi-thread guarded cell
//! falls more than 10% behind the same run's serial cell
//! ([`check_thread_scaling`] — the regression `BENCH_5.json` recorded,
//! where every multi-thread cell was slower than serial), or when a warm
//! cache lookup misses or stops undercutting the cold search by at least
//! 5× ([`check_warm_cache`]).
//!
//! Wall-clock is reported two ways: best-of-`repeats` (noise only ever
//! slows a run down, so the minimum is the most stable estimator and is
//! what the regression gates compare) and the median (robust to one lucky
//! run, so trend plots over the `BENCH_<N>.json` series don't chase
//! outliers). `candidates_per_sec` is derived from each. Every other
//! field is deterministic — counters are bit-identical across runs and,
//! except for `dp.memo_*`, across thread counts too.

use std::time::Instant;

use serde_json::{Number, Value};
use tce_core::portfolio::plan;
use tce_core::{cache_key, extract_plan, optimize, OptimizerConfig, PlanCache, Planner};

use crate::{paper_cost_model, workload_tree};

/// `Value::Object` from `(key, value)` pairs — the shimmed `serde_json`
/// has no `json!` macro, and the `Vec`-backed object preserves insertion
/// order, which keeps the report schema-stable byte-for-byte.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn num_u(n: u64) -> Value {
    Value::Number(Number::UInt(u128::from(n)))
}

fn num_f(x: f64) -> Value {
    Value::Number(Number::Float(x))
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn get_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Schema identifier written into every report; bump only on breaking
/// changes to the JSON layout.
pub const SCHEMA: &str = "tce-bench/v1";

/// Thread counts every scenario is run at.
pub const THREAD_GRID: [usize; 3] = [1, 2, 4];

/// One cell of the scenario grid.
struct Scenario {
    /// Stable name, also the baseline-matching key (with `threads`).
    name: &'static str,
    /// Workload file, relative to the repo root.
    workload: &'static str,
    procs: u32,
    replication: bool,
    unrelated_rotation: bool,
    pruning: bool,
    /// Included in the `--smoke` subset.
    smoke: bool,
    /// Wall-clock-guarded by the CI baseline comparison.
    guarded: bool,
    /// Which planner produces the cell's plan (heuristic cells run
    /// serial-only — the anytime planners are thread-invariant).
    planner: Planner,
    /// Wall-clock budget handed to the planner, if any.
    time_budget_ms: Option<u64>,
    /// Certified-gap-guarded by the CI baseline comparison
    /// ([`check_gap_regression`]).
    gap_guarded: bool,
}

/// The fixed scenario grid: every standard workload at the paper's
/// default 16 processors, the enlarged-space configuration (64 processors,
/// replication, unrelated rotation) on `ccsd_tiny` and the full `ccsd`
/// workload, and the `--no-pruning` ablation on `ccsd` — at paper extents,
/// where the memory limit keeps the unpruned live sets bounded; at tiny
/// extents everything fits, so unpruned live sets would multiply across
/// the tree without bound (tens of GB).
fn scenarios() -> Vec<Scenario> {
    let std_wl = |name, workload| Scenario {
        name,
        workload,
        procs: 16,
        replication: false,
        unrelated_rotation: false,
        pruning: true,
        smoke: false,
        guarded: false,
        planner: Planner::Exact,
        time_budget_ms: None,
        gap_guarded: false,
    };
    vec![
        Scenario { smoke: true, ..std_wl("ccsd_tiny", "workloads/ccsd_tiny.tce") },
        std_wl("ccsd", "workloads/ccsd.tce"),
        std_wl("fig1", "workloads/fig1.tce"),
        std_wl("ladder", "workloads/ladder.tce"),
        std_wl("transform", "workloads/transform.tce"),
        Scenario { name: "ccsd/no-pruning", pruning: false, ..std_wl("", "workloads/ccsd.tce") },
        Scenario {
            name: "ccsd_tiny/enlarged",
            procs: 64,
            replication: true,
            unrelated_rotation: true,
            smoke: true,
            guarded: true,
            ..std_wl("", "workloads/ccsd_tiny.tce")
        },
        Scenario {
            name: "ccsd/enlarged",
            procs: 64,
            replication: true,
            unrelated_rotation: true,
            guarded: true,
            ..std_wl("", "workloads/ccsd.tce")
        },
        // Anytime-planner cells: the heuristics on the full ccsd workload,
        // gap-gated against the baseline (wall-clock is unguarded — greedy
        // runs in single-digit milliseconds and the annealer's wall is its
        // budget, so neither is a meaningful wall regression signal).
        Scenario {
            name: "ccsd/greedy",
            planner: Planner::Greedy,
            smoke: true,
            gap_guarded: true,
            ..std_wl("", "workloads/ccsd.tce")
        },
        Scenario {
            name: "ccsd/anneal_100ms",
            planner: Planner::Anneal,
            time_budget_ms: Some(100),
            smoke: true,
            gap_guarded: true,
            ..std_wl("", "workloads/ccsd.tce")
        },
    ]
}

/// Options for [`run_suite`].
#[derive(Default)]
pub struct SuiteOptions {
    /// Run only the smoke subset (CI): `ccsd_tiny` serial plus the
    /// guarded enlarged-space scenario at *every* thread count (the full
    /// grid there is what lets [`check_thread_scaling`] compare each
    /// multi-thread cell against the same commit's serial cell).
    pub smoke: bool,
    /// Wall-clock repeats per cell (best-of); `0` means the default
    /// (3 full, 2 smoke — best-of-2 keeps the CI regression gate from
    /// tripping on scheduler noise).
    pub repeats: usize,
}

/// Run the grid and return the schema-stable report.
///
/// Workload paths are resolved relative to the current directory, so run
/// from the repo root (the CLI reports a clear error otherwise).
pub fn run_suite(opts: &SuiteOptions, mut progress: impl FnMut(&str)) -> Result<Value, String> {
    let repeats = match opts.repeats {
        0 if opts.smoke => 2,
        0 => 3,
        n => n,
    };
    let mut rows = Vec::new();
    for sc in scenarios() {
        if opts.smoke && !sc.smoke {
            continue;
        }
        let tree = workload_tree(sc.workload)?;
        let cm = paper_cost_model(sc.procs);
        for &threads in &THREAD_GRID {
            // Smoke keeps guarded scenarios at the full thread grid (so
            // the thread-scaling gate has a same-run serial reference)
            // and everything else serial-only. Heuristic-planner cells are
            // serial-only everywhere: their plans are thread-invariant.
            if opts.smoke && !sc.guarded && threads != 1 {
                continue;
            }
            if sc.planner != Planner::Exact && threads != 1 {
                continue;
            }
            progress(&format!("{} @ {} thread(s)", sc.name, threads));
            let cfg = OptimizerConfig {
                allow_replication: sc.replication,
                allow_unrelated_rotation: sc.unrelated_rotation,
                disable_pruning: !sc.pruning,
                threads,
                planner: sc.planner,
                time_budget_ms: sc.time_budget_ms,
                ..OptimizerConfig::default()
            };
            let mut wall_ms = Vec::with_capacity(repeats);
            let mut last = None;
            for _ in 0..repeats {
                let t0 = Instant::now();
                let opt = if sc.planner == Planner::Exact {
                    optimize(&tree, &cm, &cfg).map_err(|e| format!("{}: {e}", sc.name))?
                } else {
                    plan(&tree, &cm, &cfg).map_err(|e| format!("{}: {e}", sc.name))?.opt
                };
                wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                last = Some(opt);
            }
            let opt = last.expect("repeats >= 1");
            let best = wall_ms.iter().copied().fold(f64::INFINITY, f64::min);
            let median = median_ms(&wall_ms);
            let c = &opt.counters;
            use tce_obs::names as k;
            let counters = obj(vec![
                (k::PRUNED_INFERIOR, num_u(c.get(k::PRUNED_INFERIOR))),
                (k::PRUNED_MEMORY, num_u(c.get(k::PRUNED_MEMORY))),
                (k::REDIST_FALLBACKS, num_u(c.get(k::REDIST_FALLBACKS))),
                (k::MEMO_HIT, num_u(c.get(k::MEMO_HIT))),
                (k::MEMO_MISS, num_u(c.get(k::MEMO_MISS))),
                (k::BNB_SKIP, num_u(c.get(k::BNB_SKIP))),
                (k::BNB_BLOCK, num_u(c.get(k::BNB_BLOCK))),
            ]);
            rows.push(obj(vec![
                ("scenario", text(sc.name)),
                ("workload", text(sc.workload)),
                ("procs", num_u(u64::from(sc.procs))),
                ("threads", num_u(threads as u64)),
                ("pruning", Value::Bool(sc.pruning)),
                ("replication", Value::Bool(sc.replication)),
                ("unrelated_rotation", Value::Bool(sc.unrelated_rotation)),
                ("guarded", Value::Bool(sc.guarded)),
                ("planner", text(sc.planner.name())),
                ("gap_guarded", Value::Bool(sc.gap_guarded)),
                ("repeats", num_u(repeats as u64)),
                ("wall_ms_best", num_f(round3(best))),
                ("wall_ms_median", num_f(round3(median))),
                ("wall_ms_all", Value::Array(wall_ms.iter().map(|&m| num_f(round3(m))).collect())),
                ("comm_cost", num_f(opt.comm_cost)),
                ("certified_gap", num_f(opt.comm_cost - opt.comm_lower_bound)),
                ("candidates", num_u(c.get(k::CANDIDATES))),
                ("candidates_per_sec", num_f(round3(c.get(k::CANDIDATES) as f64 / (best / 1e3)))),
                (
                    "candidates_per_sec_median",
                    num_f(round3(c.get(k::CANDIDATES) as f64 / (median / 1e3))),
                ),
                ("live", num_u(c.get(k::FRONTIER))),
                ("counters", counters),
            ]));
        }
    }
    // Level-2 plan-cache cells: each runs one scenario cold (miss →
    // search → store) and warm (hit → revalidate) through a fresh cache
    // directory, reporting both walls so [`check_warm_cache`] can gate
    // the speedup. The cells reuse the standard row schema (with
    // `wall_ms_best` = the cold wall) plus `cold_wall_ms`,
    // `warm_wall_ms`, `warm_speedup`, and `cache_hits` columns.
    for (name, workload, procs, enlarged, smoke_cell) in [
        ("ccsd/cache", "workloads/ccsd.tce", 16u32, false, true),
        ("ccsd_tiny/enlarged/cache", "workloads/ccsd_tiny.tce", 64, true, true),
    ] {
        if opts.smoke && !smoke_cell {
            continue;
        }
        progress(&format!("{name} (cold + warm)"));
        let tree = workload_tree(workload)?;
        let cm = paper_cost_model(procs);
        let cfg = OptimizerConfig {
            allow_replication: enlarged,
            allow_unrelated_rotation: enlarged,
            threads: 1,
            ..OptimizerConfig::default()
        };
        let key =
            cache_key(&tree, &cm, &cfg).ok_or_else(|| format!("{name}: request not cacheable"))?;
        let dir =
            std::env::temp_dir().join(format!("tce-bench-cache-{}-{procs}", std::process::id()));
        let cache = PlanCache::at(&dir);
        let mut cold_ms = Vec::with_capacity(repeats);
        let mut warm_ms = Vec::with_capacity(repeats);
        let mut cache_hits = 0u64;
        let mut cold_opt = None;
        for _ in 0..repeats {
            let _ = std::fs::remove_dir_all(&dir);
            let t0 = Instant::now();
            let opt = optimize(&tree, &cm, &cfg).map_err(|e| format!("{name}: {e}"))?;
            let plan = extract_plan(&tree, &opt);
            cache.store(&tree, &key, &plan, &opt).map_err(|e| format!("{name}: {e}"))?;
            cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t1 = Instant::now();
            let hit = cache.lookup(&tree, &cm, &key);
            warm_ms.push(t1.elapsed().as_secs_f64() * 1e3);
            let run =
                hit.run.ok_or_else(|| format!("{name}: warm lookup missed ({:?})", hit.evicted))?;
            if run.opt.comm_cost.to_bits() != opt.comm_cost.to_bits() {
                return Err(format!(
                    "{name}: warm cost {} != cold cost {}",
                    run.opt.comm_cost, opt.comm_cost
                ));
            }
            cache_hits += 1;
            cold_opt = Some(opt);
        }
        let _ = std::fs::remove_dir_all(&dir);
        let opt = cold_opt.expect("repeats >= 1");
        let cold = cold_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let warm = warm_ms.iter().copied().fold(f64::INFINITY, f64::min);
        let c = &opt.counters;
        use tce_obs::names as k;
        rows.push(obj(vec![
            ("scenario", text(name)),
            ("workload", text(workload)),
            ("procs", num_u(u64::from(procs))),
            ("threads", num_u(1)),
            ("pruning", Value::Bool(true)),
            ("replication", Value::Bool(enlarged)),
            ("unrelated_rotation", Value::Bool(enlarged)),
            ("guarded", Value::Bool(false)),
            ("planner", text(Planner::Exact.name())),
            ("gap_guarded", Value::Bool(false)),
            ("repeats", num_u(repeats as u64)),
            ("wall_ms_best", num_f(round3(cold))),
            ("wall_ms_median", num_f(round3(median_ms(&cold_ms)))),
            ("wall_ms_all", Value::Array(cold_ms.iter().map(|&m| num_f(round3(m))).collect())),
            ("cold_wall_ms", num_f(round3(cold))),
            ("warm_wall_ms", num_f(round3(warm))),
            ("warm_speedup", num_f(round3(cold / warm.max(1e-6)))),
            ("cache_hits", num_u(cache_hits)),
            ("comm_cost", num_f(opt.comm_cost)),
            ("certified_gap", num_f(opt.comm_cost - opt.comm_lower_bound)),
            ("candidates", num_u(c.get(k::CANDIDATES))),
            ("candidates_per_sec", num_f(round3(c.get(k::CANDIDATES) as f64 / (cold / 1e3)))),
            (
                "candidates_per_sec_median",
                num_f(round3(c.get(k::CANDIDATES) as f64 / (median_ms(&cold_ms) / 1e3))),
            ),
            ("live", num_u(c.get(k::FRONTIER))),
            (
                "counters",
                obj(vec![
                    (k::PRUNED_INFERIOR, num_u(c.get(k::PRUNED_INFERIOR))),
                    (k::PRUNED_MEMORY, num_u(c.get(k::PRUNED_MEMORY))),
                    (k::REDIST_FALLBACKS, num_u(c.get(k::REDIST_FALLBACKS))),
                    (k::MEMO_HIT, num_u(c.get(k::MEMO_HIT))),
                    (k::MEMO_MISS, num_u(c.get(k::MEMO_MISS))),
                    (k::BNB_SKIP, num_u(c.get(k::BNB_SKIP))),
                    (k::BNB_BLOCK, num_u(c.get(k::BNB_BLOCK))),
                ]),
            ),
        ]));
    }
    Ok(obj(vec![
        ("schema", text(SCHEMA)),
        ("bench_id", num_u(9)),
        ("smoke", Value::Bool(opts.smoke)),
        ("scenarios", Value::Array(rows)),
    ]))
}

/// The warm-cache gate: every plan-cache cell must hit on all warm
/// lookups and its warm wall must undercut the cold wall by at least
/// `min_speedup` (with a small absolute slack so microsecond-scale cells
/// can't flake on timer noise). A warm lookup that stops beating the
/// search is a cache that silently stopped caching.
pub fn check_warm_cache(report: &Value, min_speedup: f64) -> Result<String, String> {
    const ABS_SLACK_MS: f64 = 5.0;
    let rows = report.get("scenarios").and_then(Value::as_array).cloned().unwrap_or_default();
    let mut out = String::new();
    let mut regressions = Vec::new();
    for r in &rows {
        let (Some(name), Some(cold), Some(warm)) = (
            r.get("scenario").and_then(Value::as_str),
            r.get("cold_wall_ms").and_then(Value::as_f64),
            r.get("warm_wall_ms").and_then(Value::as_f64),
        ) else {
            continue;
        };
        let hits = r.get("cache_hits").and_then(Value::as_u64).unwrap_or(0);
        let repeats = r.get("repeats").and_then(Value::as_u64).unwrap_or(0);
        let speedup = cold / warm.max(1e-6);
        let verdict = if hits < repeats {
            regressions.push(format!("{name}: only {hits} of {repeats} warm lookups hit"));
            "REGRESSED"
        } else if warm > cold / min_speedup + ABS_SLACK_MS {
            regressions.push(format!(
                "{name}: warm {warm:.1}ms vs cold {cold:.1}ms ({speedup:.1}x < {min_speedup}x)"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{name}: warm {warm:.3}ms vs cold {cold:.1}ms ({speedup:.1}x, {hits}/{repeats} hits) {verdict}\n"
        ));
    }
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}warm plan-cache cells regressed:\n  {}", regressions.join("\n  ")))
    }
}

/// Truncate timing-derived floats so reports do not churn in irrelevant
/// digits.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Median wall time: middle element, or the mean of the two middles for
/// even-length runs. `repeats >= 1` always holds.
fn median_ms(wall_ms: &[f64]) -> f64 {
    let mut sorted = wall_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn gap_cells(v: &Value) -> Vec<(String, u64, bool, f64)> {
    v.get("scenarios")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    Some((
                        r.get("scenario")?.as_str()?.to_string(),
                        r.get("threads")?.as_u64()?,
                        r.get("gap_guarded").and_then(get_bool).unwrap_or(false),
                        r.get("certified_gap")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The certified-gap gate: every *gap-guarded* cell (the anytime-planner
/// scenarios) must not report a certified gap more than `factor` times the
/// committed baseline's gap for the same cell, plus a small absolute slack
/// so a zero-gap baseline doesn't make any positive gap an instant
/// failure. The annealer's result under a wall-clock budget legitimately
/// varies with machine speed (fewer restarts fit on a slower runner), so
/// the factor is deliberately coarse — 2× in CI.
///
/// Cells missing from either side are ignored here; the wall-clock
/// comparison ([`compare_to_baseline`]) already hard-errors on cell-set
/// mismatches. Returns the human-readable table on success.
pub fn check_gap_regression(
    current: &Value,
    baseline: &Value,
    factor: f64,
) -> Result<String, String> {
    const ABS_SLACK_S: f64 = 1e-3;
    let base = gap_cells(baseline);
    let mut out = String::new();
    let mut regressions = Vec::new();
    for (name, threads, guarded, cur_gap) in gap_cells(current) {
        if !guarded {
            continue;
        }
        let Some((_, _, _, base_gap)) =
            base.iter().find(|(n, t, _, _)| *n == name && *t == threads)
        else {
            continue;
        };
        let verdict = if cur_gap > base_gap * factor + ABS_SLACK_S {
            regressions
                .push(format!("{name} @ {threads}t: gap {cur_gap:.4}s vs baseline {base_gap:.4}s"));
            "REGRESSED"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{name} @ {threads}t: certified gap {cur_gap:.4}s vs baseline {base_gap:.4}s {verdict}\n"
        ));
    }
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{out}certified gap regressed beyond {factor}x baseline:\n  {}",
            regressions.join("\n  ")
        ))
    }
}

fn report_cells(v: &Value) -> Vec<(String, u64, bool, f64)> {
    v.get("scenarios")
        .and_then(Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| {
                    Some((
                        r.get("scenario")?.as_str()?.to_string(),
                        r.get("threads")?.as_u64()?,
                        r.get("guarded").and_then(get_bool).unwrap_or(false),
                        r.get("wall_ms_best")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Compare a fresh report against a committed baseline: every *guarded*
/// scenario cell (matched on `scenario` + `threads`) must not have slowed
/// down by more than `tolerance` (0.25 = 25%).
///
/// The cell sets must also line up: a current cell with no baseline
/// counterpart, or a baseline cell the current run never produced, is a
/// hard error naming the missing cells — a silently skipped cell is a
/// gate that silently stopped gating (the exception: a `--smoke` current
/// run is a declared subset, so baseline cells it intentionally omits are
/// fine, but every cell it *does* produce must still exist in the
/// baseline). Returns the human-readable comparison table on success.
pub fn compare_to_baseline(
    current: &Value,
    baseline: &Value,
    tolerance: f64,
) -> Result<String, String> {
    let base = report_cells(baseline);
    let cur = report_cells(current);
    let current_is_smoke = current.get("smoke").and_then(get_bool).unwrap_or(false);
    let mut missing = Vec::new();
    for (name, threads, _, _) in &cur {
        if !base.iter().any(|(n, t, _, _)| n == name && t == threads) {
            missing.push(format!("{name} @ {threads}t (in current, not in baseline)"));
        }
    }
    if !current_is_smoke {
        for (name, threads, _, _) in &base {
            if !cur.iter().any(|(n, t, _, _)| n == name && t == threads) {
                missing.push(format!("{name} @ {threads}t (in baseline, not in current)"));
            }
        }
    }
    if !missing.is_empty() {
        return Err(format!(
            "benchmark cell sets do not match — regenerate the baseline \
             (`tce bench --out <BENCH_N.json>`) or fix the grid:\n  {}",
            missing.join("\n  ")
        ));
    }
    let mut out = String::new();
    let mut regressions = Vec::new();
    for (name, threads, guarded, cur_ms) in cur {
        let (_, _, _, base_ms) = base
            .iter()
            .find(|(n, t, _, _)| *n == name && *t == threads)
            .expect("cell-set mismatch is rejected above");
        let ratio = cur_ms / base_ms.max(1e-9);
        let verdict = if !guarded {
            "unguarded"
        } else if ratio > 1.0 + tolerance {
            regressions.push(format!(
                "{name} @ {threads}t: {cur_ms:.1}ms vs {base_ms:.1}ms ({ratio:.2}x)"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{name} @ {threads}t: {cur_ms:.1}ms vs baseline {base_ms:.1}ms ({ratio:.2}x) {verdict}\n"
        ));
    }
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{out}enlarged-space wall-clock regressed more than {:.0}%:\n  {}",
            tolerance * 100.0,
            regressions.join("\n  ")
        ))
    }
}

/// The thread-scaling gate: within one report, every *guarded* scenario's
/// multi-thread cell must not exceed the same scenario's serial
/// (`threads == 1`) wall time by more than `tolerance` (0.10 = 10%), plus
/// a 20 ms absolute slack so sub-100ms cells can't flake on scheduler
/// noise. This is the gate for the `BENCH_5.json` regression class, where
/// every multi-thread cell was *slower* than serial: adding threads must
/// never cost wall time, whatever the machine — on single-core runners
/// the scheduler degrades to the serial path, so the cells tie.
///
/// Returns the human-readable table, or an error listing the cells where
/// threads made the search slower.
pub fn check_thread_scaling(report: &Value, tolerance: f64) -> Result<String, String> {
    const ABS_SLACK_MS: f64 = 20.0;
    let cells = report_cells(report);
    let mut out = String::new();
    let mut regressions = Vec::new();
    for (name, threads, guarded, cur_ms) in &cells {
        if !guarded || *threads == 1 {
            continue;
        }
        let Some((_, _, _, serial_ms)) =
            cells.iter().find(|(n, t, g, _)| n == name && *t == 1 && *g)
        else {
            return Err(format!(
                "thread-scaling gate: guarded scenario {name} has no serial cell in this report"
            ));
        };
        let ratio = cur_ms / serial_ms.max(1e-9);
        let verdict = if *cur_ms > serial_ms * (1.0 + tolerance) + ABS_SLACK_MS {
            regressions.push(format!(
                "{name} @ {threads}t: {cur_ms:.1}ms vs serial {serial_ms:.1}ms ({ratio:.2}x)"
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{name} @ {threads}t: {cur_ms:.1}ms vs serial {serial_ms:.1}ms ({ratio:.2}x) {verdict}\n"
        ));
    }
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(format!(
            "{out}multi-thread search slower than serial by more than {:.0}%:\n  {}",
            tolerance * 100.0,
            regressions.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(name: &str, threads: u64, ms: f64, guarded: bool) -> Value {
        obj(vec![
            ("scenario", text(name)),
            ("threads", num_u(threads)),
            ("guarded", Value::Bool(guarded)),
            ("wall_ms_best", num_f(ms)),
        ])
    }

    fn report_of(smoke: bool, cells: Vec<Value>) -> Value {
        obj(vec![
            ("schema", text(SCHEMA)),
            ("smoke", Value::Bool(smoke)),
            ("scenarios", Value::Array(cells)),
        ])
    }

    fn report(ms: f64, guarded: bool) -> Value {
        report_of(false, vec![cell("s", 1, ms, guarded)])
    }

    #[test]
    fn baseline_comparison_flags_only_guarded_regressions() {
        // Within tolerance.
        assert!(compare_to_baseline(&report(110.0, true), &report(100.0, true), 0.25).is_ok());
        // Beyond tolerance on a guarded cell.
        let err = compare_to_baseline(&report(200.0, true), &report(100.0, true), 0.25);
        assert!(err.is_err(), "{err:?}");
        assert!(err.unwrap_err().contains("REGRESSED"));
        // Beyond tolerance but unguarded: noise-prone cells never fail CI.
        assert!(compare_to_baseline(&report(200.0, false), &report(100.0, false), 0.25).is_ok());
    }

    #[test]
    fn baseline_cell_set_mismatch_is_a_hard_error_naming_the_cells() {
        // Current cell absent from the baseline: hard error, named.
        let empty = report_of(false, vec![]);
        let err = compare_to_baseline(&report(200.0, true), &empty, 0.25).unwrap_err();
        assert!(err.contains("s @ 1t (in current, not in baseline)"), "{err}");
        // Baseline cell absent from a full current run: hard error, named.
        let err = compare_to_baseline(&empty, &report(100.0, true), 0.25).unwrap_err();
        assert!(err.contains("s @ 1t (in baseline, not in current)"), "{err}");
        // A smoke current run is a declared subset: baseline cells it
        // omits are fine, and present cells still gate.
        let smoke = report_of(true, vec![cell("s", 1, 110.0, true)]);
        let full = report_of(false, vec![cell("s", 1, 100.0, true), cell("other", 4, 50.0, false)]);
        assert!(compare_to_baseline(&smoke, &full, 0.25).is_ok());
        // …but a smoke cell missing from the baseline still errors.
        let err = compare_to_baseline(&smoke, &empty, 0.25).unwrap_err();
        assert!(err.contains("in current, not in baseline"), "{err}");
    }

    #[test]
    fn thread_scaling_gate_compares_against_same_report_serial() {
        // Parallel at parity (and even 10% over, inside tolerance): ok.
        let ok = report_of(false, vec![cell("e", 1, 1000.0, true), cell("e", 2, 1050.0, true)]);
        assert!(check_thread_scaling(&ok, 0.10).is_ok());
        // Parallel slower than serial beyond tolerance + slack: error.
        let bad = report_of(false, vec![cell("e", 1, 1000.0, true), cell("e", 2, 1400.0, true)]);
        let err = check_thread_scaling(&bad, 0.10).unwrap_err();
        assert!(err.contains("e @ 2t") && err.contains("REGRESSED"), "{err}");
        // Unguarded cells never gate.
        let noisy = report_of(false, vec![cell("u", 1, 100.0, false), cell("u", 4, 900.0, false)]);
        assert!(check_thread_scaling(&noisy, 0.10).is_ok());
        // A guarded scenario with no serial reference is itself an error.
        let orphan = report_of(false, vec![cell("e", 4, 100.0, true)]);
        assert!(check_thread_scaling(&orphan, 0.10).is_err());
        // Tiny cells sit inside the absolute slack.
        let tiny = report_of(false, vec![cell("t", 1, 5.0, true), cell("t", 2, 20.0, true)]);
        assert!(check_thread_scaling(&tiny, 0.10).is_ok());
    }

    #[test]
    fn smoke_suite_runs_and_matches_schema() {
        // Resolve workloads/ from the crate dir's parent (repo root) so the
        // test passes regardless of the harness's working directory.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        std::env::set_current_dir(root).unwrap();
        let v = run_suite(&SuiteOptions { smoke: true, repeats: 1 }, |_| {}).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(SCHEMA));
        let rows = v.get("scenarios").unwrap().as_array().unwrap();
        // Smoke = ccsd_tiny serial + the guarded enlarged scenario at the
        // full thread grid + the two serial anytime-planner cells + the
        // two plan-cache cold/warm cells.
        assert_eq!(rows.len(), 1 + THREAD_GRID.len() + 2 + 2, "{rows:?}");
        for r in rows {
            assert!(r.get("wall_ms_best").unwrap().as_f64().unwrap() > 0.0);
            assert!(r.get("wall_ms_median").unwrap().as_f64().unwrap() > 0.0);
            assert!(r.get("candidates_per_sec_median").unwrap().as_f64().unwrap() > 0.0);
            assert!(r.get("candidates").unwrap().as_u64().unwrap() > 0);
            let counters = r.get("counters").unwrap();
            assert!(counters.get("dp.memo_miss").unwrap().as_u64().is_some());
        }
        let enlarged_threads: Vec<u64> = rows
            .iter()
            .filter(|r| r.get("scenario").unwrap().as_str() == Some("ccsd_tiny/enlarged"))
            .map(|r| r.get("threads").unwrap().as_u64().unwrap())
            .collect();
        assert_eq!(enlarged_threads, vec![1, 2, 4], "{rows:?}");
        let enlarged = rows
            .iter()
            .find(|r| r.get("scenario").unwrap().as_str() == Some("ccsd_tiny/enlarged"))
            .unwrap();
        assert_eq!(get_bool(enlarged.get("guarded").unwrap()), Some(true));
        let bnb = enlarged.get("counters").unwrap().get("dp.bnb_skip").unwrap();
        assert!(bnb.as_u64().unwrap() > 0);
        // The anytime-planner cells are serial-only, gap-guarded, and
        // report a finite non-negative certified gap.
        for name in ["ccsd/greedy", "ccsd/anneal_100ms"] {
            let cells: Vec<&Value> =
                rows.iter().filter(|r| r.get("scenario").unwrap().as_str() == Some(name)).collect();
            assert_eq!(cells.len(), 1, "{name} must run exactly once (serial)");
            let cell = cells[0];
            assert_eq!(cell.get("threads").unwrap().as_u64(), Some(1));
            assert_eq!(get_bool(cell.get("gap_guarded").unwrap()), Some(true));
            assert_eq!(get_bool(cell.get("guarded").unwrap()), Some(false));
            let gap = cell.get("certified_gap").unwrap().as_f64().unwrap();
            assert!(gap.is_finite() && gap >= 0.0, "{name}: bad certified gap {gap}");
        }
        // The plan-cache cells: every warm lookup hit, costs matched (the
        // suite hard-errors otherwise), and the speedup columns exist.
        for name in ["ccsd/cache", "ccsd_tiny/enlarged/cache"] {
            let cell = rows
                .iter()
                .find(|r| r.get("scenario").unwrap().as_str() == Some(name))
                .unwrap_or_else(|| panic!("{name} cell missing"));
            assert_eq!(cell.get("cache_hits").unwrap().as_u64(), Some(1), "{name}");
            assert!(cell.get("warm_wall_ms").unwrap().as_f64().unwrap() > 0.0, "{name}");
            assert!(cell.get("warm_speedup").unwrap().as_f64().unwrap() > 0.0, "{name}");
        }
        // The thread-scaling gate runs clean on a real smoke report.
        check_thread_scaling(&v, 0.10).unwrap();
        // The gap gate runs clean against the report itself as baseline.
        check_gap_regression(&v, &v, 2.0).unwrap();
        // The warm-cache gate runs clean on a real smoke report.
        check_warm_cache(&v, 5.0).unwrap();
    }

    #[test]
    fn warm_cache_gate_flags_slow_or_missing_hits() {
        let ccell = |name: &str, cold: f64, warm: f64, hits: u64, repeats: u64| {
            obj(vec![
                ("scenario", text(name)),
                ("repeats", num_u(repeats)),
                ("cold_wall_ms", num_f(cold)),
                ("warm_wall_ms", num_f(warm)),
                ("cache_hits", num_u(hits)),
            ])
        };
        // Fast warm hits: ok.
        let ok = report_of(false, vec![ccell("c", 1000.0, 2.0, 2, 2)]);
        assert!(check_warm_cache(&ok, 5.0).is_ok());
        // Warm slower than cold/5 + slack: error naming the cell.
        let slow = report_of(false, vec![ccell("c", 1000.0, 600.0, 2, 2)]);
        let err = check_warm_cache(&slow, 5.0).unwrap_err();
        assert!(err.contains('c') && err.contains("REGRESSED"), "{err}");
        // A missed warm lookup is a regression even when timing is fine.
        let missed = report_of(false, vec![ccell("c", 1000.0, 2.0, 1, 2)]);
        let err = check_warm_cache(&missed, 5.0).unwrap_err();
        assert!(err.contains("1 of 2"), "{err}");
        // Tiny cells sit inside the absolute slack.
        let tiny = report_of(false, vec![ccell("t", 3.0, 4.0, 1, 1)]);
        assert!(check_warm_cache(&tiny, 5.0).is_ok());
        // Rows without cache columns are ignored.
        let plain = report_of(false, vec![cell("s", 1, 100.0, true)]);
        assert!(check_warm_cache(&plain, 5.0).is_ok());
    }

    #[test]
    fn gap_gate_flags_doubled_gaps_on_gap_guarded_cells_only() {
        let gcell = |name: &str, gap: f64, guarded: bool| {
            obj(vec![
                ("scenario", text(name)),
                ("threads", num_u(1)),
                ("gap_guarded", Value::Bool(guarded)),
                ("certified_gap", num_f(gap)),
            ])
        };
        let base = report_of(false, vec![gcell("g", 1.0, true), gcell("u", 1.0, false)]);
        // Within 2x: ok.
        let ok = report_of(false, vec![gcell("g", 1.9, true), gcell("u", 9.0, false)]);
        assert!(check_gap_regression(&ok, &base, 2.0).is_ok());
        // Beyond 2x on a gap-guarded cell: error naming the cell.
        let bad = report_of(false, vec![gcell("g", 2.5, true), gcell("u", 1.0, false)]);
        let err = check_gap_regression(&bad, &base, 2.0).unwrap_err();
        assert!(err.contains("g @ 1t") && err.contains("REGRESSED"), "{err}");
        // A zero-gap baseline tolerates a tiny positive gap (absolute
        // slack), but not a real one.
        let zbase = report_of(false, vec![gcell("g", 0.0, true)]);
        let tiny = report_of(false, vec![gcell("g", 1e-6, true)]);
        assert!(check_gap_regression(&tiny, &zbase, 2.0).is_ok());
        let real = report_of(false, vec![gcell("g", 0.5, true)]);
        assert!(check_gap_regression(&real, &zbase, 2.0).is_err());
    }

    #[test]
    fn median_of_odd_and_even_runs() {
        assert_eq!(median_ms(&[3.0]), 3.0);
        assert_eq!(median_ms(&[4.0, 1.0, 9.0]), 4.0);
        assert_eq!(median_ms(&[4.0, 1.0, 9.0, 6.0]), 5.0);
    }
}
