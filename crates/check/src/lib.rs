//! `tce-check`: static verification of execution plans.
//!
//! The §3.3 optimizer emits [`ExecutionPlan`]s whose legality rests on
//! invariants it never re-checks: Cannon pattern legality (§3.2),
//! fusion-prefix consistency between producer and consumer, the
//! per-processor memory bound, and a cost ledger that must be reproducible
//! from the cost model. This crate verifies all of it *independently* — a
//! diagnostics engine with stable `TCE0xx` codes ([`diag`]) plus a registry
//! of analysis passes ([`passes`]) that trust nothing in the plan they can
//! re-derive from the expression tree and the paper's formulas.
//!
//! The plan types themselves ([`ExecutionPlan`], [`PlanStep`],
//! [`PlanOperand`]) live in [`plan`]; `tce-core` builds them and calls
//! this crate directly for its self-check, `validate_plan`, and the
//! plan-cache load gate.
//!
//! Entry points:
//! * [`check_plan`] — run every pass, collect a [`CheckReport`];
//! * [`validate_plan`] — `Result<(), String>` form of the model-free
//!   passes (no cost model required).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

pub mod diag;
pub mod passes;
pub mod plan;

pub use diag::{codes, CheckReport, Diagnostic, Diagnostics, Severity};
pub use passes::{CheckContext, Pass};
pub use plan::{ExecutionPlan, PlanOperand, PlanStep};

use tce_cost::CostModel;
use tce_expr::ExprTree;

/// Run the full pass registry over a `(tree, plan)` pair.
///
/// The structural gate pass runs first; if it finds errors, the deeper
/// passes are skipped (they would dereference node and index ids the gate
/// just proved invalid) and recorded in [`CheckReport::skipped`]. Passes
/// that need a cost model are skipped with a reason when `cm` is `None`.
pub fn check_plan(
    tree: &ExprTree,
    plan: &ExecutionPlan,
    cm: Option<&CostModel>,
    mem_limit_words: Option<u128>,
) -> CheckReport {
    let ctx = CheckContext { tree, plan, cm, mem_limit_words };
    let mut report = CheckReport::default();

    let gate = passes::gate_pass();
    let mut found = Diagnostics::new();
    gate.run(&ctx, &mut found);
    report.passes_run.push(gate.name());
    let gate_errors = found.error_count();
    report.diagnostics.extend(found.into_vec());
    if gate_errors > 0 {
        for p in passes::analysis_passes() {
            report.skipped.push((p.name(), "structural errors gate the deeper passes".into()));
        }
        return report;
    }

    for p in passes::analysis_passes() {
        if p.needs_cost_model() && cm.is_none() {
            report.skipped.push((p.name(), "no cost model available".into()));
            continue;
        }
        let mut found = Diagnostics::new();
        p.run(&ctx, &mut found);
        report.passes_run.push(p.name());
        report.diagnostics.extend(found.into_vec());
    }
    report
}

/// The `Result<(), String>` form of the model-free checks:
/// [`check_plan`] without a cost model or memory limit.
pub fn validate_plan(tree: &ExprTree, plan: &ExecutionPlan) -> Result<(), String> {
    check_plan(tree, plan, None, None).to_result()
}

/// Does nothing. The checker needs no registration: `tce-core` calls
/// [`check_plan`] directly. Kept so that existing callers still compile.
pub fn install() {}
