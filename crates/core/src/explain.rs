//! Explain an optimization outcome in prose: what the memory constraint
//! forced, and what it cost — the §4 narrative ("memory constraints can
//! lead to counter-intuitive trends in communication costs") generated for
//! any workload.

use tce_cost::units::{fmt_paper_bytes, words_to_bytes};
use tce_cost::CostModel;
use tce_expr::ExprTree;

use crate::dp::{search, OptimizeError, Optimized, OptimizerConfig};
use crate::plan::extract_plan;

/// The comparison behind an explanation.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// Communication cost under the real memory limit.
    pub constrained_comm: f64,
    /// Communication cost with the limit lifted.
    pub unconstrained_comm: f64,
    /// Footprint the unconstrained optimum would need (words/processor).
    pub unconstrained_footprint: u128,
    /// The per-processor limit (words).
    pub limit_words: u128,
    /// Fusions the constrained plan uses, rendered (`T1→(f)`).
    pub fusions: Vec<String>,
    /// The rendered narrative.
    pub text: String,
}

/// Optimize under the memory limit and narrate what the limit cost —
/// [`explain_from`] over a fresh constrained search.
pub fn explain(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Explanation, OptimizeError> {
    let constrained = search(tree, cm, cfg, false)?;
    explain_from(tree, cm, cfg, &constrained)
}

/// Narrate `constrained`, the exact DP's outcome for `cfg` (with its
/// solution sets — not a plan-cache hit). The unconstrained search runs
/// only when some node pruned a candidate for memory: otherwise lifting
/// the limit changes no candidate, frontier, or winner, so `constrained`
/// is its own unconstrained optimum.
pub fn explain_from(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    constrained: &Optimized,
) -> Result<Explanation, OptimizeError> {
    let limit = cfg.mem_limit_words.unwrap_or_else(|| cm.mem_limit_words());
    let unconstrained;
    let free = if constrained.stats.iter().any(|s| s.pruned_memory > 0) {
        let free_cfg = OptimizerConfig { mem_limit_words: Some(u128::MAX), ..cfg.clone() };
        unconstrained = search(tree, cm, &free_cfg, false)?;
        &unconstrained
    } else {
        constrained
    };
    let plan = extract_plan(tree, constrained);
    let fusions: Vec<String> = plan
        .steps
        .iter()
        .filter(|s| !s.result_fusion.is_empty())
        .map(|s| format!("{}→({})", s.result_name, tree.space.render(s.result_fusion.as_slice())))
        .collect();

    let free_fp = free.mem_words + free.max_msg_words;
    let mut text = String::new();
    if free_fp <= limit {
        text.push_str(&format!(
            "The communication-optimal plan fits in memory ({} of {} per \
             processor), so the limit costs nothing: {:.1} s of communication.",
            fmt_paper_bytes(words_to_bytes(free_fp)),
            fmt_paper_bytes(words_to_bytes(limit)),
            free.comm_cost,
        ));
    } else {
        text.push_str(&format!(
            "The communication-optimal plan would need {} per processor but \
             only {} is available, so the optimizer trades memory for \
             messages",
            fmt_paper_bytes(words_to_bytes(free_fp)),
            fmt_paper_bytes(words_to_bytes(limit)),
        ));
        if fusions.is_empty() {
            text.push_str(" by re-distributing arrays");
        } else {
            text.push_str(&format!(" by fusing {}", fusions.join(", ")));
        }
        let ratio = constrained.comm_cost / free.comm_cost.max(1e-12);
        text.push_str(&format!(
            ": communication rises from {:.1} s to {:.1} s ({:.1}×). \
             The entire difference is the price of the memory constraint.",
            free.comm_cost, constrained.comm_cost, ratio
        ));
    }
    Ok(Explanation {
        constrained_comm: constrained.comm_cost,
        unconstrained_comm: free.comm_cost,
        unconstrained_footprint: free_fp,
        limit_words: limit,
        fusions,
        text,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce_cost::MachineModel;
    use tce_expr::examples::{ccsd_tree, PAPER_EXTENTS};

    #[test]
    fn explains_the_16_processor_squeeze() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 16).unwrap();
        let e = explain(&tree, &cm, &OptimizerConfig::default()).unwrap();
        assert!(e.unconstrained_footprint > e.limit_words);
        assert!(e.constrained_comm > e.unconstrained_comm);
        assert_eq!(e.fusions, vec!["T1→(f)"]);
        assert!(e.text.contains("price of the memory constraint"), "{}", e.text);
        assert!(e.text.contains("fusing T1→(f)"), "{}", e.text);
    }

    #[test]
    fn explains_the_64_processor_free_ride() {
        let tree = ccsd_tree(PAPER_EXTENTS);
        let cm = CostModel::for_square(MachineModel::itanium_cluster(), 64).unwrap();
        let e = explain(&tree, &cm, &OptimizerConfig::default()).unwrap();
        assert!(e.unconstrained_footprint <= e.limit_words);
        assert!((e.constrained_comm - e.unconstrained_comm).abs() < 1e-9);
        assert!(e.fusions.is_empty());
        assert!(e.text.contains("costs nothing"), "{}", e.text);
    }
}
