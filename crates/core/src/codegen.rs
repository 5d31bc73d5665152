//! SPMD pseudo-code generation from an execution plan.
//!
//! The paper's program-synthesis system ultimately emits parallel code;
//! this module renders the plan as the per-processor (SPMD) pseudo-code a
//! human would review before trusting generated MPI: the fused loop
//! structure, the Cannon alignment/rotation schedule with travel
//! directions, redistributions, and local kernels. The structure mirrors
//! the virtual-cluster executor exactly (same nesting rules), so what you
//! read is what `tce-sim` runs.

use tce_check::{ExecutionPlan, PlanStep};
use tce_dist::Operand;
use tce_expr::{ExprTree, IndexId, NodeId};

struct Gen<'a> {
    tree: &'a ExprTree,
    plan: &'a ExecutionPlan,
    grid: tce_dist::ProcGrid,
    out: String,
}

/// Render the whole plan as SPMD pseudo-code.
pub fn render_spmd(tree: &ExprTree, plan: &ExecutionPlan, procs: u32) -> String {
    let grid =
        tce_dist::ProcGrid::square(procs).expect("SPMD rendering needs a square processor count");
    let q = grid.dim1;
    let mut g = Gen { tree, plan, grid, out: String::new() };
    g.out.push_str(&format!(
        "// SPMD program for {procs} processors on a {q}x{q} grid (me = (z1, z2))\n"
    ));
    for step in &plan.steps {
        if step.result_fusion.is_empty() {
            g.emit_step(step, 0, &[]);
        }
    }
    g.out
}

impl Gen<'_> {
    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn line(&mut self, depth: usize, text: &str) {
        self.indent(depth);
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn step_of(&self, node: NodeId) -> Option<&PlanStep> {
        self.plan.steps.iter().find(|s| s.node == node)
    }

    /// Emit one step whose parent-edge fused loops `opened` are already
    /// open at `depth` (mirrors the executor's `exec_node`/`nest`).
    fn emit_step(&mut self, step: &PlanStep, mut depth: usize, opened: &[IndexId]) {
        let sp = &self.tree.space;
        let reduced_dims: Vec<IndexId> = self
            .tree
            .node(step.node)
            .tensor
            .dims
            .iter()
            .copied()
            .filter(|d| !step.result_fusion.contains(*d))
            .collect();
        self.line(
            depth,
            &format!(
                "alloc {}[{}] in {}   // {} words/proc",
                step.result_name,
                sp.render(&reduced_dims),
                step.result_dist.render(sp),
                tce_dist::dist_size(
                    &self.tree.node(step.node).tensor,
                    sp,
                    self.grid,
                    step.result_dist,
                    &step.result_fusion.as_set()
                )
            ),
        );
        // Hoisted children (prefix shorter than ours).
        for op in &step.operands {
            if !op.is_leaf && !op.fusion.is_empty() && op.fusion.len() < opened.len() {
                if let Some(child) = self.step_of(op.node) {
                    let child = child.clone();
                    self.emit_step(&child, depth, &opened[..op.fusion.len()]);
                }
            }
        }
        // Redistributions of unfused operands.
        for op in &step.operands {
            if op.fusion.is_empty() && op.produced_dist != op.required_dist {
                self.line(
                    depth,
                    &format!(
                        "redistribute {}: {} -> {}   // {:.1} s",
                        op.name,
                        op.produced_dist.render(sp),
                        op.required_dist.render(sp),
                        op.redist_cost
                    ),
                );
            }
        }
        // Open the surrounding fused loops beyond `opened`, emitting
        // just-completed children along the way.
        let surrounding: Vec<IndexId> = step.surrounding.iter().collect();
        for (m, &idx) in surrounding.iter().enumerate().skip(opened.len()) {
            self.line(depth, &format!("for {}_loc in my range of {}:", sp.name(idx), sp.name(idx)));
            depth += 1;
            for op in &step.operands {
                if !op.is_leaf && op.fusion.len() == m + 1 {
                    if let Some(child) = self.step_of(op.node) {
                        let child = child.clone();
                        self.emit_step(&child, depth, &surrounding[..m + 1]);
                    }
                }
            }
        }
        self.emit_kernel(step, depth);
    }

    fn emit_kernel(&mut self, step: &PlanStep, depth: usize) {
        let sp = &self.tree.space;
        let Some(pat) = step.pattern else {
            self.line(
                depth,
                &format!("local kernel: {} (aligned, no communication)", step.result_name),
            );
            return;
        };
        let rotated = pat.rotated_operands();
        if rotated.is_empty() {
            self.line(
                depth,
                &format!(
                    "{} += local_contract({}, {})   // replicated K: single local multiply",
                    step.result_name, step.operands[0].name, step.operands[1].name
                ),
            );
            return;
        }
        let name_of = |op: Operand| match op {
            Operand::Left => step.operands[0].name.clone(),
            Operand::Right => step.operands[1].name.clone(),
            Operand::Result => step.result_name.clone(),
        };
        for &op in &rotated {
            if op != Operand::Result {
                let travel = pat.travel_dim(op).expect("rotated operand travels");
                self.line(depth, &format!("align {} (skew along grid {:?})", name_of(op), travel));
            }
        }
        self.line(depth, "for t in 0..q:  // Cannon rounds");
        self.line(
            depth + 1,
            &format!(
                "{} += local_contract({}, {})",
                name_of(Operand::Result),
                name_of(Operand::Left),
                name_of(Operand::Right)
            ),
        );
        for &op in &rotated {
            let travel = pat.travel_dim(op).expect("rotated operand travels");
            self.line(
                depth + 1,
                &format!("if t+1 < q: shift {} along grid {:?}", name_of(op), travel),
            );
        }
        if rotated.contains(&Operand::Result) {
            self.line(depth, &format!("home {} blocks", step.result_name));
        }
        let _ = sp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::{optimize, OptimizerConfig};
    use crate::plan::extract_plan;
    use tce_cost::{CostModel, MachineModel};
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn spmd_for_table2_shows_the_fused_rotation() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let opt = optimize(&tree, &cm, &OptimizerConfig::default()).unwrap();
        let plan = extract_plan(&tree, &opt);
        let code = render_spmd(&tree, &plan, 16);
        // The fused f loop encloses T1's production.
        assert!(code.contains("for f_loc in my range of f:"), "{code}");
        let f_pos = code.find("for f_loc").unwrap();
        let t1_pos = code.find("alloc T1[b,c,d]").unwrap();
        assert!(t1_pos > f_pos, "T1's slice is allocated inside the f loop");
        // Cannon rounds with shifts appear for every step.
        assert_eq!(code.matches("for t in 0..q:").count(), 3);
        assert!(code.contains("shift T1 along grid"));
        assert!(code.contains("align B (skew along grid"));
        // D is never shifted (it stays fixed in step 1).
        assert!(!code.contains("shift D"), "{code}");
    }

    #[test]
    fn spmd_mentions_redistribution_when_the_plan_has_one() {
        use std::collections::HashMap;
        use tce_dist::enumerate_patterns;
        let src = "\
range a = 8; range b = 8; range c = 8; range d = 8;
input A[a,b]; input B[b,c]; input C[c,d];
T[a,c] = sum[b] A[a,b] * B[b,c];
S[a,d] = sum[c] T[a,c] * C[c,d];
";
        let tree = tce_expr::parse(src).unwrap().to_sequence().unwrap().to_tree().unwrap();
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 4).unwrap();
        let t_node = tree.find("T").unwrap();
        let s_node = tree.find("S").unwrap();
        let pt = enumerate_patterns(&tree.contraction_groups(t_node).unwrap(), false)[0];
        let produced = pt.operand_dist(Operand::Result);
        let ps = enumerate_patterns(&tree.contraction_groups(s_node).unwrap(), false)
            .into_iter()
            .find(|p| p.operand_dist(Operand::Left) != produced)
            .unwrap();
        let mut fixed = HashMap::new();
        fixed.insert(t_node, pt);
        fixed.insert(s_node, ps);
        let cfg = OptimizerConfig {
            fixed_patterns: Some(fixed),
            max_prefix_len: 0,
            mem_limit_words: Some(u128::MAX),
            ..Default::default()
        };
        let opt = optimize(&tree, &cm, &cfg).unwrap();
        let plan = extract_plan(&tree, &opt);
        let code = render_spmd(&tree, &plan, 4);
        assert!(code.contains("redistribute T:"), "{code}");
    }
}
