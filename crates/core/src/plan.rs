//! Plan extraction: reconstruct an [`ExecutionPlan`] from the DP's
//! solution sets.

use tce_check::{ExecutionPlan, PlanOperand, PlanStep};
use tce_expr::{ExprTree, NodeId};

use crate::dp::Optimized;

/// Reconstruct the winning plan from the DP's solution sets.
pub fn extract_plan(tree: &ExprTree, opt: &Optimized) -> ExecutionPlan {
    extract_plan_for(tree, opt, opt.best_index)
}

/// Reconstruct the plan of any root solution (e.g. a point of the
/// memory/communication frontier).
pub fn extract_plan_for(tree: &ExprTree, opt: &Optimized, index: usize) -> ExecutionPlan {
    let mut steps = Vec::new();
    let root_set = &opt.sets[&tree.root()];
    walk(tree, opt, tree.root(), index, &mut steps);
    steps.reverse(); // walk emits consumers first; execution wants postorder
    ExecutionPlan {
        comm_cost: root_set.cost(index),
        mem_words: root_set.mem(index),
        max_msg_words: root_set.msg(index),
        steps,
    }
}

fn walk(tree: &ExprTree, opt: &Optimized, node: NodeId, index: usize, out: &mut Vec<PlanStep>) {
    let set = &opt.sets[&node];
    let Some(choice) = set.choice(index) else { return };
    let mut operands = Vec::new();
    let mut recurse: Vec<(NodeId, usize)> = Vec::new();
    for b in &choice.children {
        let is_leaf = tree.node(b.node).is_leaf();
        operands.push(PlanOperand {
            node: b.node,
            name: tree.node(b.node).tensor.name.clone(),
            required_dist: b.required_dist,
            produced_dist: b.produced_dist,
            fusion: b.fusion.clone(),
            redist_cost: b.redist_cost,
            rotate_cost: b.rotate_cost,
            is_leaf,
        });
        if !is_leaf {
            recurse.push((b.node, b.sol_index));
        }
    }
    out.push(PlanStep {
        node,
        result_name: tree.node(node).tensor.name.clone(),
        pattern: choice.pattern,
        result_dist: set.dist(index),
        result_fusion: set.fusion(index).clone(),
        result_rotate_cost: choice.result_rotate_cost,
        surrounding: choice.surrounding.clone(),
        operands,
    });
    for (n, i) in recurse {
        walk(tree, opt, n, i, out);
    }
}
