//! Level-2 on-disk plan cache: round-trip bit-identity, rename-invariant
//! hits, and the eviction ladder.

use std::path::PathBuf;

use tce_core::{cache_key, extract_plan, optimize, validate_plan, OptimizerConfig, PlanCache};
use tce_cost::{CostModel, MachineModel};
use tce_expr::{parse, ExprTree};

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tce-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tree_of(src: &str) -> ExprTree {
    parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap()
}

const CHAIN: &str = "\
range a, b, c, d = 16;
T1[a,c] = sum[b] A[a,b] * B[b,c];
T2[a,d] = sum[c] T1[a,c] * C[c,d];
";

/// The same contraction with every index renamed and both contractions'
/// operands commuted — must map to the same cache entry.
const CHAIN_RENAMED: &str = "\
range p, q, r, s = 16;
U1[p,r] = sum[q] Y[q,r] * X[p,q];
U2[p,s] = sum[r] Z[r,s] * U1[p,r];
";

const CHAIN_INPUTS: &str = "input A[a,b]; input B[b,c]; input C[c,d];\n";
const CHAIN_RENAMED_INPUTS: &str = "input X[p,q]; input Y[q,r]; input Z[r,s];\n";

fn with_inputs(ranges_then_stmts: &str, inputs: &str) -> String {
    let (first, rest) = ranges_then_stmts.split_once('\n').unwrap();
    format!("{first}\n{inputs}{rest}")
}

#[test]
fn store_then_lookup_is_bit_identical() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);

    let cache = PlanCache::at(tmp_cache("roundtrip"));
    let key = cache_key(&tree, &cm, &cfg).expect("cacheable");
    // Cold: miss.
    assert!(cache.lookup(&tree, &cm, &key).run.is_none());
    cache.store(&tree, &key, &plan, &opt).unwrap();
    // Warm: hit, bit-identical.
    let hit = cache.lookup(&tree, &cm, &key).run.expect("warm hit");
    assert_eq!(hit.plan.to_json(), plan.to_json());
    assert_eq!(hit.opt.comm_cost.to_bits(), opt.comm_cost.to_bits());
    assert_eq!(hit.opt.mem_words, opt.mem_words);
    assert_eq!(hit.opt.max_msg_words, opt.max_msg_words);
    assert_eq!(hit.opt.output_redist_cost.to_bits(), opt.output_redist_cost.to_bits());
    assert_eq!(hit.opt.comm_lower_bound.to_bits(), opt.comm_lower_bound.to_bits());
    assert_eq!(hit.opt.comm_floor_exact, opt.comm_floor_exact);
    assert_eq!(hit.opt.arena_hw_bytes, opt.arena_hw_bytes);
    assert_eq!(format!("{:?}", hit.opt.stats), format!("{:?}", opt.stats));
    for (name, value) in opt.counters.iter() {
        assert_eq!(hit.opt.counters.get(name), value, "counter {name} diverged");
    }
    let stats = cache.stats();
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0);
    // Persistent totals recorded across the calls above.
    let get =
        |n: &str| stats.counters.iter().find(|(name, _)| *name == n).map(|&(_, v)| v).unwrap();
    assert_eq!(get("cache.hit"), 1);
    assert_eq!(get("cache.miss"), 1);
    assert_eq!(get("cache.store"), 1);
    // verify() accepts the entry; clear() empties the directory.
    let verified = cache.verify();
    assert_eq!(verified.len(), 1);
    verified[0].result.as_ref().unwrap();
    assert_eq!(cache.clear().unwrap(), 1);
    assert_eq!(cache.stats().entries, 0);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn renamed_commuted_expression_hits_same_entry() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let renamed = tree_of(&with_inputs(CHAIN_RENAMED, CHAIN_RENAMED_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let key2 = cache_key(&renamed, &cm, &cfg).unwrap();
    assert_eq!(key.expr_hash, key2.expr_hash, "canonical hashes differ");
    assert_eq!(key.file_name(), key2.file_name());

    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("rename"));
    cache.store(&tree, &key, &plan, &opt).unwrap();

    // The mapped plan must be valid on the renamed tree and match the
    // fresh optimum's cost bit-for-bit. (The *plans* may be mirror
    // images: fresh search enumerates operands in declared order, so a
    // commuted source can legally pick the symmetric equal-cost layout.)
    let hit = cache.lookup(&renamed, &cm, &key2).run.expect("isomorphic hit");
    validate_plan(&renamed, &hit.plan).unwrap();
    let fresh = optimize(&renamed, &cm, &cfg).unwrap();
    assert_eq!(hit.opt.comm_cost.to_bits(), fresh.comm_cost.to_bits());
    assert_eq!(hit.plan.comm_cost.to_bits(), extract_plan(&renamed, &fresh).comm_cost.to_bits());
    assert_eq!(hit.opt.mem_words, fresh.mem_words);
    let _ = std::fs::remove_dir_all(cache.dir());
}

#[test]
fn corrupt_and_stale_entries_are_evicted() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("evict"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let path = cache.dir().join(key.file_name());

    // Truncated JSON → evict_corrupt.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert!(out.run.is_none());
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_CORRUPT));
    assert!(!path.exists(), "evicted entry must be deleted");

    // Stale version stamp → evict_version.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("tce-plan-cache/v1", "tce-plan-cache/v0")).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_VERSION));

    // Foreign characterization digest → evict_digest.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let digest = format!("{:032x}", key.cost_digest);
    std::fs::write(&path, text.replace(&digest, &format!("{:032x}", !key.cost_digest))).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_DIGEST));

    // A plan failing validation → evict_plan. Break a stored step cost so
    // the ledger no longer adds up.
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let cost = format!("{:?}", plan.comm_cost);
    let broken = text.replacen(&cost, &format!("{:?}", plan.comm_cost + 7.5), 1);
    assert_ne!(broken, text, "fixture must actually change the entry");
    std::fs::write(&path, broken).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_PLAN));

    // After every eviction the persistent totals tell the story — past a
    // garbage line, a torn record that the next event lands right after,
    // and a `stats.json` totals file left by an older build.
    let log = cache.dir().join("stats.log");
    let text = std::fs::read_to_string(&log).unwrap();
    std::fs::write(&log, text + "\n\u{0}junk\ncache.evict_pl").unwrap();
    std::fs::write(cache.dir().join("stats.json"), "{\"evict_plan\": 99}").unwrap();
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let stats = cache.stats();
    let get =
        |n: &str| stats.counters.iter().find(|(name, _)| *name == n).map(|&(_, v)| v).unwrap();
    assert_eq!(get("cache.evict_corrupt"), 1);
    assert_eq!(get("cache.evict_version"), 1);
    assert_eq!(get("cache.evict_digest"), 1);
    assert_eq!(get("cache.evict_plan"), 1);
    assert_eq!(get("cache.store"), 5);
    assert_eq!(stats.entries, 1, "stats.json counted as an entry");
    assert_eq!(cache.clear().unwrap(), 1);
    assert!(cache.stats().counters.iter().all(|&(_, v)| v == 0));
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Clients sharing one cache directory may store the same key at the same
/// moment. Every store must succeed (each writes its own temp file before
/// the rename), the surviving entry must be complete and warm-hit, and no
/// temp file may be left behind.
#[test]
fn concurrent_stores_of_one_key_all_succeed_and_hit() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("race"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();

    let start = std::sync::Barrier::new(8);
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    cache.store(&tree, &key, &plan, &opt)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results {
        assert!(r.is_ok(), "concurrent store failed: {r:?}");
    }
    let hit = cache.lookup(&tree, &cm, &key).run.expect("warm hit after concurrent stores");
    assert_eq!(hit.plan.to_json(), plan.to_json());
    assert_eq!(hit.opt.comm_cost.to_bits(), opt.comm_cost.to_bits());
    let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// An entry carrying a counter this build does not emit was written by
/// another build: it is evicted as stale, never half-loaded.
#[test]
fn entry_with_unknown_counter_is_evicted_as_stale() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("unknown-counter"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let path = cache.dir().join(key.file_name());
    cache.store(&tree, &key, &plan, &opt).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let foreign = text.replacen("\"dp.candidates\"", "\"dp.no_such_counter\"", 1);
    assert_ne!(foreign, text, "fixture must actually change the entry");
    std::fs::write(&path, foreign).unwrap();
    let out = cache.lookup(&tree, &cm, &key);
    assert!(out.run.is_none());
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_VERSION));
    assert!(!path.exists(), "evicted entry must be deleted");
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// The load gate is the full check registry in every binary that links
/// `tce-core` — this one never calls an install step. Shift one operand
/// rotation cost and both headline totals by the same amount: the step
/// ledger still sums and the headline still matches the plan, so only the
/// cost pass, which reprices every rotation from the live model, can tell.
#[test]
fn cost_corrupted_entry_is_evicted_without_setup() {
    let tree = tree_of(&with_inputs(CHAIN, CHAIN_INPUTS));
    let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
    let cfg = OptimizerConfig { max_prefix_len: 2, threads: 1, ..Default::default() };
    let opt = optimize(&tree, &cm, &cfg).unwrap();
    let plan = extract_plan(&tree, &opt);
    let cache = PlanCache::at(tmp_cache("cost-gate"));
    let key = cache_key(&tree, &cm, &cfg).unwrap();
    let path = cache.dir().join(key.file_name());
    cache.store(&tree, &key, &plan, &opt).unwrap();

    let rot = plan.steps.iter().flat_map(|s| &s.operands).map(|o| o.rotate_cost).find(|&c| c > 0.0);
    let rot = rot.expect("the plan rotates some operand");
    assert_eq!(opt.output_redist_cost, 0.0, "the headline total is the plan total");
    let field = |name: &str, x: f64| format!("\"{name}\": {x:?}");
    let (cost, total) = (field("rotate_cost", rot), field("comm_cost", plan.comm_cost));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains(&cost), "stored rotation cost");
    assert_eq!(text.matches(&total).count(), 2, "plan and headline totals");
    let corrupted = text
        .replacen(&cost, &field("rotate_cost", rot + 1.0), 1)
        .replace(&total, &field("comm_cost", plan.comm_cost + 1.0));
    std::fs::write(&path, corrupted).unwrap();

    let out = cache.lookup(&tree, &cm, &key);
    assert!(out.run.is_none(), "cost-corrupted entry was served");
    assert_eq!(out.evicted, Some(tce_obs::names::CACHE_EVICT_PLAN));
    assert!(!path.exists(), "evicted entry must be deleted");
    let _ = std::fs::remove_dir_all(cache.dir());
}
