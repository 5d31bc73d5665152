//! Property tests for `tce_cost::lower_bound`: over the same random-tree
//! distribution the fuzzer uses, the certified communication floor never
//! exceeds the DP optimum, and the storage floor never exceeds the true
//! footprint of any plan the optimizer emits.
//!
//! These are the admissibility invariants the branch-and-bound wiring in
//! `tce-core` relies on (DESIGN.md §12): an inadmissible floor would not
//! just weaken a certificate, it could prune the optimal corner.

use tensor_contraction_opt::bench::randtree::{random_tree, TreeParams};
use tensor_contraction_opt::core::{extract_plan, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::lower_bound::{
    comm_lower_bound, mem_floor_words, prove_memory_infeasible, subtree_comm_floors_detailed,
};
use tensor_contraction_opt::cost::{bound, CostModel, MachineModel};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::opmin::lower_program;

const SEEDS: u64 = 60;

fn models() -> Vec<CostModel> {
    [4u32, 16]
        .iter()
        .map(|&p| CostModel::for_square(MachineModel::itanium_cluster(), p).expect("square"))
        .collect()
}

#[test]
fn certified_comm_floor_never_exceeds_dp_optimum() {
    let params = TreeParams::default();
    for seed in 0..SEEDS {
        let tree = random_tree(seed, &params);
        for cm in &models() {
            for replication in [false, true] {
                let cfg = OptimizerConfig { allow_replication: replication, ..Default::default() };
                let Ok(opt) = optimize(&tree, cm, &cfg) else { continue };
                let certified = bound::certify(comm_lower_bound(&tree, cm, replication));
                assert!(
                    certified <= opt.comm_cost || (certified - opt.comm_cost).abs() < 1e-9,
                    "seed {seed} procs {} replication {replication}: \
                     certified floor {certified} > optimum {}",
                    cm.grid.num_procs(),
                    opt.comm_cost
                );
                // The wired-through value agrees with a fresh computation.
                assert!(
                    (opt.comm_lower_bound - certified).abs() <= 1e-12 * certified.abs().max(1.0),
                    "seed {seed}: Optimized.comm_lower_bound {} != recomputed {certified}",
                    opt.comm_lower_bound
                );
            }
        }
    }
}

#[test]
fn memory_floor_never_exceeds_emitted_plan_footprint() {
    let params = TreeParams::default();
    for seed in 0..SEEDS {
        let tree = random_tree(seed, &params);
        for cm in &models() {
            let cfg = OptimizerConfig::default();
            let Ok(opt) = optimize(&tree, cm, &cfg) else { continue };
            let plan = extract_plan(&tree, &opt);
            let floor = mem_floor_words(&tree, cm, cfg.max_prefix_len);
            assert!(
                floor <= plan.mem_words,
                "seed {seed} procs {}: storage floor {floor} > plan footprint {}",
                cm.grid.num_procs(),
                plan.mem_words
            );
            // The prover must accept any limit a real plan satisfies.
            assert!(
                prove_memory_infeasible(&tree, cm, plan.mem_words, cfg.max_prefix_len).is_none(),
                "seed {seed}: prover rejected a limit a real plan meets"
            );
        }
    }
}

/// The certificate of every shipped workload — the root floor's bits and
/// its exactness flag — at 4, 16 and 64 processors, with and without
/// replication, pinned so any rewrite of the floor sweep must reproduce
/// it bit for bit.
#[test]
fn workload_certificates_are_pinned() {
    // (workload, procs, replication, root floor bits, exact)
    const PINNED: &[(&str, u32, bool, u64, bool)] = &[
        ("ccsd", 4, false, 0x4076cd02722650ae, true),
        ("ccsd", 4, true, 0x0000000000000000, true),
        ("ccsd", 16, false, 0x4066f3c420d0977b, true),
        ("ccsd", 16, true, 0x0000000000000000, true),
        ("ccsd", 64, false, 0x40578ecadb79b2b1, true),
        ("ccsd", 64, true, 0x0000000000000000, true),
        ("ccsd_tiny", 4, false, 0x3ffd52bf0862e26b, true),
        ("ccsd_tiny", 4, true, 0x0000000000000000, true),
        ("ccsd_tiny", 16, false, 0x400d4450733b23a2, true),
        ("ccsd_tiny", 16, true, 0x0000000000000000, true),
        ("ccsd_tiny", 64, false, 0x401d41829ffcc783, true),
        ("ccsd_tiny", 64, true, 0x0000000000000000, true),
        ("fig1", 4, false, 0x0000000000000000, true),
        ("fig1", 4, true, 0x0000000000000000, true),
        ("fig1", 16, false, 0x0000000000000000, true),
        ("fig1", 16, true, 0x0000000000000000, true),
        ("fig1", 64, false, 0x0000000000000000, true),
        ("fig1", 64, true, 0x0000000000000000, true),
        ("ladder", 4, false, 0x406df5e65c836fe8, true),
        ("ladder", 4, true, 0x0000000000000000, true),
        ("ladder", 16, false, 0x405e5d402e49820a, true),
        ("ladder", 16, true, 0x0000000000000000, true),
        ("ladder", 64, false, 0x404ff68ee1ed0e2f, true),
        ("ladder", 64, true, 0x0000000000000000, true),
        ("repeated", 4, false, 0x400703b6e89c54d8, true),
        ("repeated", 4, true, 0x0000000000000000, true),
        ("repeated", 16, false, 0x4016fd32c625e99c, true),
        ("repeated", 16, true, 0x0000000000000000, true),
        ("repeated", 64, false, 0x4026fb91bd884ece, true),
        ("repeated", 64, true, 0x0000000000000000, true),
        ("transform", 4, false, 0x40523e39f77292c3, true),
        ("transform", 4, true, 0x0000000000000000, true),
        ("transform", 16, false, 0x404309db2c6729bb, true),
        ("transform", 16, true, 0x0000000000000000, true),
        ("transform", 64, false, 0x403638600039859a, true),
        ("transform", 64, true, 0x0000000000000000, true),
    ];
    let mut diverged = Vec::new();
    for &(workload, procs, replication, bits, exact) in PINNED {
        let path = format!("{}/workloads/{workload}.tce", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("readable workload");
        let tree = lower_program(&parse(&src).unwrap()).unwrap().to_tree().unwrap();
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), procs).expect("square");
        let floors = subtree_comm_floors_detailed(&tree, &cm, replication);
        let got = (floors.floors[&tree.root()].to_bits(), floors.root_exact(&tree));
        if got != (bits, exact) {
            diverged.push(format!(
                "{workload} procs {procs} replication {replication}: \
                 got ({:#018x}, {}) want ({bits:#018x}, {exact})",
                got.0, got.1
            ));
        }
    }
    assert!(diverged.is_empty(), "certificates diverged:\n{}", diverged.join("\n"));
}
