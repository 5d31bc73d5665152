//! `tce optimize` narrates the memory-limit story from the exact planner's
//! own result (`explain_from`), running the unconstrained search only when
//! some node pruned a candidate for memory. The narration must equal the
//! standalone `explain()` text, and its unconstrained figures a full
//! search with the limit lifted, on every shipped workload at every grid
//! and memory limit of the benchmark mix — both where the limit binds and
//! where it does not.

use tensor_contraction_opt::core::portfolio::plan;
use tensor_contraction_opt::core::{explain, explain_from, optimize, OptimizerConfig};
use tensor_contraction_opt::cost::units::PAPER_MB;
use tensor_contraction_opt::cost::{CostModel, MachineModel};
use tensor_contraction_opt::expr::parse;
use tensor_contraction_opt::opmin::lower_program;

#[test]
fn narration_from_the_planner_result_matches_explain() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/workloads");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("workloads dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tce"))
        .collect();
    files.sort();
    // (unconstrained search ran, skipped) and (limit binds, plan fits).
    let (mut searched, mut skipped, mut binds, mut fits) = (0, 0, 0, 0);
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable workload");
        let tree = lower_program(&parse(&src).unwrap()).unwrap().to_tree().unwrap();
        for procs in [4u32, 16, 64] {
            for gb in [2.0f64, 4.0, 100.0] {
                let case = format!("{} p={procs} {gb} GB", path.display());
                let mut machine = MachineModel::itanium_cluster();
                machine.mem_per_node_bytes = (gb * 1024.0 * PAPER_MB) as u64;
                let cm = CostModel::for_square(machine, procs).unwrap();
                let cfg = OptimizerConfig::default();
                let Ok(planned) = plan(&tree, &cm, &cfg) else {
                    assert!(explain(&tree, &cm, &cfg).is_err(), "{case}: only explain succeeded");
                    continue;
                };
                let narrated = explain_from(&tree, &cm, &cfg, &planned.opt).unwrap();
                let fresh = explain(&tree, &cm, &cfg).unwrap();
                assert_eq!(narrated.text, fresh.text, "{case}");
                let lifted = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..cfg.clone() };
                let free = optimize(&tree, &cm, &lifted).unwrap();
                assert_eq!(
                    narrated.unconstrained_comm.to_bits(),
                    free.comm_cost.to_bits(),
                    "{case}"
                );
                assert_eq!(
                    narrated.unconstrained_footprint,
                    free.mem_words + free.max_msg_words,
                    "{case}"
                );
                if planned.opt.stats.iter().any(|s| s.pruned_memory > 0) {
                    searched += 1;
                } else {
                    skipped += 1;
                }
                if narrated.unconstrained_footprint > narrated.limit_words {
                    binds += 1;
                } else {
                    fits += 1;
                }
            }
        }
    }
    assert!(searched > 0 && skipped > 0, "searched {searched}, skipped {skipped}");
    assert!(binds > 0 && fits > 0, "limit binds in {binds} cases, fits in {fits}");
}
