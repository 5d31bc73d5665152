//! Anytime planner portfolio: greedy and random-restart simulated
//! annealing over the exact DP's own `(distribution, fusion)` space.
//!
//! Both heuristics are *configuration samplers*: a sample fixes one
//! communication pattern per contraction node and one fusion prefix per
//! internal edge, then evaluates the assignment by running [`optimize`]
//! with `fixed_patterns`/`fixed_fusion` pins. Everything downstream —
//! plan extraction, the static checks, input-distribution pins, the
//! memory limit, and `NoFeasibleSolution` semantics — is therefore shared
//! with the exact planner verbatim; a heuristic can emit exactly the
//! plans the DP can, never more. Because every pinned search space is a
//! subset of the full one, a sample's cost is always ≥ the exact optimum,
//! which is what makes the incumbent a sound warm upper bound for the
//! exact branch-and-bound ([`OptimizerConfig::warm_upper_bound`]) and
//! makes `cost − certified_floor` a true (if loose) optimality gap.
//!
//! Feasibility is never decided heuristically: when no sampled
//! configuration fits the memory limit, [`plan`] falls back to one exact
//! DP run, so every planner returns [`OptimizeError::NoFeasibleSolution`]
//! exactly when the exact planner does — a restricted space going
//! infeasible (e.g. unfused under a tight limit) silently escalates
//! instead of misreporting the expression as unplannable.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tce_cost::CostModel;
use tce_dist::{enumerate_patterns, CannonPattern};
use tce_expr::{ExprTree, IndexSet, NodeId, NodeKind};
use tce_fusion::{edge_candidates, enumerate_prefixes, FusionConfig, FusionPrefix};

use crate::dp::{optimize, search, OptimizeError, Optimized, OptimizerConfig, Planner};

/// Annealing steps per restart when no wall-clock budget is given.
const DEFAULT_STEPS: usize = 40;
/// Restarts when no wall-clock budget is given.
const DEFAULT_RESTARTS: usize = 2;
/// Restart cap under a budget (the deadline is the real stop).
const BUDGET_RESTART_CAP: usize = 64;
/// Attempts to sample a feasible random restart configuration.
const RESTART_SAMPLE_TRIES: usize = 16;
/// Initial temperature as a fraction of the current cost.
const T0_FRACTION: f64 = 0.08;
/// Geometric temperature decay per accepted-or-rejected step.
const T_DECAY: f64 = 0.92;

/// A [`plan`] result: the winning [`Optimized`] plus the anytime
/// metadata the CLI surfaces (`tce-report/v2` fields `planner` and
/// `budget_exhausted`).
#[derive(Debug)]
pub struct Planned {
    /// The winning solution, re-certified under the caller's own
    /// verification and lower-bound settings.
    pub opt: Optimized,
    /// The planner that served the request ([`OptimizerConfig::planner`]).
    pub planner: Planner,
    /// Whether the wall-clock budget expired before the search stopped on
    /// its own (always `false` without a budget).
    pub budget_exhausted: bool,
    /// Incumbent cost trajectory: one entry per strict improvement, so
    /// monotone non-increasing, ending at `opt.comm_cost`.
    pub incumbents: Vec<f64>,
    /// Restricted-DP evaluations performed (including the final
    /// re-certification run).
    pub evaluations: u64,
}

/// The sampling axes of one expression: the pattern menu per contraction
/// node and the fusion-prefix menu per internal edge, in postorder (so
/// every derived iteration is deterministic).
struct Space {
    pattern_nodes: Vec<NodeId>,
    pattern_menus: Vec<Vec<CannonPattern>>,
    fusion_edges: Vec<NodeId>,
    fusion_menus: Vec<Vec<FusionPrefix>>,
}

impl Space {
    fn build(tree: &ExprTree, cfg: &OptimizerConfig) -> Self {
        let mut pattern_nodes = Vec::new();
        let mut pattern_menus = Vec::new();
        let mut fusion_edges = Vec::new();
        let mut fusion_menus = Vec::new();
        for id in tree.postorder() {
            let n = tree.node(id);
            if n.is_leaf() {
                continue;
            }
            if let NodeKind::Contract { .. } = n.kind {
                if let Ok(groups) = tree.contraction_groups(id) {
                    pattern_nodes.push(id);
                    pattern_menus.push(enumerate_patterns(&groups, cfg.allow_replication));
                }
            }
            if id != tree.root() {
                fusion_edges.push(id);
                fusion_menus
                    .push(enumerate_prefixes(&edge_candidates(tree, id), cfg.max_prefix_len));
            }
        }
        Space { pattern_nodes, pattern_menus, fusion_edges, fusion_menus }
    }
}

/// One point of the sampled space: a pattern-menu index per contraction
/// node, and (when fusion is pinned too) a prefix-menu index per internal
/// edge. `fusion: None` leaves the fusion axis to the restricted DP —
/// the greedy planner's shape.
#[derive(Clone, PartialEq, Eq, Hash)]
struct Sample {
    patterns: Vec<usize>,
    fusion: Option<Vec<usize>>,
}

impl Sample {
    fn pins(&self, space: &Space) -> (HashMap<NodeId, CannonPattern>, Option<FusionConfig>) {
        let patterns = space
            .pattern_nodes
            .iter()
            .zip(&space.pattern_menus)
            .zip(&self.patterns)
            .map(|((&node, menu), &i)| (node, menu[i]))
            .collect();
        let fusion = self.fusion.as_ref().map(|fus| {
            let mut fc = FusionConfig::unfused();
            for ((&edge, menu), &i) in space.fusion_edges.iter().zip(&space.fusion_menus).zip(fus) {
                fc.set(edge, menu[i].clone());
            }
            fc
        });
        (patterns, fusion)
    }
}

/// Shared evaluation context: the user's request plus the derived
/// sampling space, the evaluation cache, and the anytime bookkeeping.
struct Session<'a> {
    tree: &'a ExprTree,
    cm: &'a CostModel,
    base: &'a OptimizerConfig,
    space: Space,
    cache: HashMap<Sample, Option<f64>>,
    evaluations: u64,
    incumbents: Vec<f64>,
    best: Option<(Sample, f64)>,
    deadline: Option<Instant>,
}

impl<'a> Session<'a> {
    fn new(tree: &'a ExprTree, cm: &'a CostModel, base: &'a OptimizerConfig) -> Self {
        Session {
            tree,
            cm,
            base,
            space: Space::build(tree, base),
            cache: HashMap::new(),
            evaluations: 0,
            incumbents: Vec::new(),
            best: None,
            deadline: base.time_budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        }
    }

    fn out_of_budget(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Evaluate one sample through the restricted DP. The certificate and
    /// verification are skipped during sampling (they are computed once
    /// on the final winner); `None` means the pinned space is infeasible.
    fn eval(&mut self, sample: &Sample) -> Option<f64> {
        if let Some(&cached) = self.cache.get(sample) {
            return cached;
        }
        let (patterns, fusion) = sample.pins(&self.space);
        if let Some(fc) = &fusion {
            if fc.validate(self.tree).is_err() {
                self.cache.insert(sample.clone(), None);
                return None;
            }
        }
        let mut cfg = self.base.clone();
        cfg.planner = Planner::Exact;
        cfg.fixed_patterns = Some(patterns);
        cfg.fixed_fusion = fusion;
        cfg.verify = false;
        cfg.warm_upper_bound = None;
        self.evaluations += 1;
        let cost = search(self.tree, self.cm, &cfg, false).ok().map(|o| o.comm_cost);
        self.cache.insert(sample.clone(), cost);
        if let Some(c) = cost {
            if self.best.as_ref().is_none_or(|(_, b)| c < *b) {
                self.best = Some((sample.clone(), c));
                self.incumbents.push(c);
            }
        }
        cost
    }

    /// Re-run the winning sample under the caller's own verification
    /// setting so the returned [`Optimized`] carries a real certificate,
    /// upgraded to `floor` ([`caller_floor`]) when that is stronger. The
    /// search is the sampling evaluation's, so the plan and cost are
    /// identical to it.
    fn certify(&mut self, sample: &Sample, floor: (f64, bool)) -> Result<Optimized, OptimizeError> {
        let (patterns, fusion) = sample.pins(&self.space);
        let mut cfg = self.base.clone();
        cfg.planner = Planner::Exact;
        cfg.fixed_patterns = Some(patterns);
        cfg.fixed_fusion = fusion;
        cfg.warm_upper_bound = None;
        self.evaluations += 1;
        let mut opt = optimize(self.tree, self.cm, &cfg)?;
        let (floor, exact) = floor;
        if floor > opt.comm_lower_bound {
            opt.comm_lower_bound = floor;
            opt.comm_floor_exact = exact;
        }
        Ok(opt)
    }

    /// The greedy sample: unconstrained fusion, and at every contraction
    /// node the pattern whose node-local rotation cost (unfused, the
    /// paper's `RotateCost` with `f = ∅`) is smallest. Ties keep the
    /// first (enumeration-order) pattern, so the choice is deterministic.
    fn greedy_sample(&self) -> Sample {
        let patterns = self
            .space
            .pattern_nodes
            .iter()
            .zip(&self.space.pattern_menus)
            .map(|(&node, menu)| {
                let (left, right) = match tree_children(self.tree, node) {
                    Some(lr) => lr,
                    None => return 0,
                };
                let mut best = 0;
                let mut best_score = f64::INFINITY;
                for (i, pat) in menu.iter().enumerate() {
                    let score = local_rotation_score(self.tree, self.cm, node, left, right, pat);
                    if score < best_score {
                        best_score = score;
                        best = i;
                    }
                }
                best
            })
            .collect();
        Sample { patterns, fusion: None }
    }

    /// Pin the fusion axis of `sample` to the prefixes its evaluated plan
    /// actually realized, giving the annealer a feasible full assignment
    /// that costs exactly the greedy incumbent.
    fn realized_fusion(&mut self, sample: &Sample) -> Result<Sample, OptimizeError> {
        let (patterns, _) = sample.pins(&self.space);
        let mut cfg = self.base.clone();
        cfg.planner = Planner::Exact;
        cfg.fixed_patterns = Some(patterns);
        cfg.fixed_fusion = None;
        cfg.verify = false;
        cfg.warm_upper_bound = None;
        self.evaluations += 1;
        let opt = search(self.tree, self.cm, &cfg, false)?;
        let plan = crate::plan::extract_plan(self.tree, &opt);
        let by_node: HashMap<NodeId, &FusionPrefix> =
            plan.steps.iter().map(|s| (s.node, &s.result_fusion)).collect();
        let fusion = self
            .space
            .fusion_edges
            .iter()
            .zip(&self.space.fusion_menus)
            .map(|(edge, menu)| {
                by_node.get(edge).and_then(|p| menu.iter().position(|m| &m == p)).unwrap_or(0)
            })
            .collect();
        Ok(Sample { patterns: sample.patterns.clone(), fusion: Some(fusion) })
    }

    /// A uniformly random full assignment. Fusion index 0 is always the
    /// empty prefix ([`enumerate_prefixes`] lists it first), so the
    /// all-zero fallback is always a legal fusion configuration.
    fn random_sample(&self, rng: &mut StdRng) -> Sample {
        let patterns = self
            .space
            .pattern_menus
            .iter()
            .map(|m| if m.len() > 1 { rng.gen_range(0..m.len()) } else { 0 })
            .collect();
        let fusion = self
            .space
            .fusion_menus
            .iter()
            .map(|m| if m.len() > 1 { rng.gen_range(0..m.len()) } else { 0 })
            .collect();
        Sample { patterns, fusion: Some(fusion) }
    }

    /// One annealing run from `start`: propose single-axis moves (swap
    /// the pattern at one contraction node, or the fusion prefix on one
    /// internal edge), accept by the Metropolis rule under a geometric
    /// temperature schedule. Infeasible or fusion-illegal proposals are
    /// rejected moves. Returns early when the deadline passes or
    /// `stop_at` (the portfolio's `(1+ε)·floor` early-stop) is reached.
    fn anneal_from(&mut self, start: Sample, steps: usize, rng: &mut StdRng, stop_at: Option<f64>) {
        let mut cur = start;
        let mut cur_cost = match self.eval(&cur) {
            Some(c) => c,
            None => return,
        };
        let pat_axes: Vec<usize> = (0..self.space.pattern_menus.len())
            .filter(|&i| self.space.pattern_menus[i].len() > 1)
            .collect();
        let fus_axes: Vec<usize> = (0..self.space.fusion_menus.len())
            .filter(|&i| self.space.fusion_menus[i].len() > 1)
            .collect();
        if pat_axes.is_empty() && fus_axes.is_empty() {
            return;
        }
        let mut temp = T0_FRACTION * cur_cost.max(f64::MIN_POSITIVE);
        for _ in 0..steps {
            if self.out_of_budget() || self.stopped(stop_at) {
                return;
            }
            let axis = rng.gen_range(0..pat_axes.len() + fus_axes.len());
            let mut cand = cur.clone();
            if axis < pat_axes.len() {
                let a = pat_axes[axis];
                let len = self.space.pattern_menus[a].len();
                let mut next = rng.gen_range(0..len - 1);
                if next >= cand.patterns[a] {
                    next += 1;
                }
                cand.patterns[a] = next;
            } else {
                let a = fus_axes[axis - pat_axes.len()];
                let len = self.space.fusion_menus[a].len();
                let fus = cand.fusion.as_mut().expect("annealing samples pin fusion");
                let mut next = rng.gen_range(0..len - 1);
                if next >= fus[a] {
                    next += 1;
                }
                fus[a] = next;
            }
            temp *= T_DECAY;
            if let Some(cand_cost) = self.eval(&cand) {
                let delta = cand_cost - cur_cost;
                let accept = delta <= 0.0 || {
                    let p = (-delta / temp).exp();
                    temp > 0.0 && p > 0.0 && rng.gen_bool(p.min(1.0))
                };
                if accept {
                    cur = cand;
                    cur_cost = cand_cost;
                }
            }
        }
    }

    fn stopped(&self, stop_at: Option<f64>) -> bool {
        match (stop_at, &self.best) {
            (Some(t), Some((_, c))) => *c <= t,
            _ => false,
        }
    }
}

/// The certified root floor and its exactness under the caller's pattern
/// universe. [`optimize`] conservatively widens its floor to the
/// replication superset whenever patterns are pinned (pins could in
/// principle come from anywhere); the heuristics' pins are drawn from the
/// caller's own menus, so this stronger floor stays admissible for every
/// sample and is what their certificate and early stop use.
fn caller_floor(tree: &ExprTree, cm: &CostModel, cfg: &OptimizerConfig) -> (f64, bool) {
    let detail =
        tce_cost::lower_bound::subtree_comm_floors_detailed(tree, cm, cfg.allow_replication);
    (tce_cost::bound::certify(detail.floors[&tree.root()]), detail.root_exact(tree))
}

fn tree_children(tree: &ExprTree, node: NodeId) -> Option<(NodeId, NodeId)> {
    match tree.node(node).kind {
        NodeKind::Contract { left, right, .. } => Some((left, right)),
        _ => None,
    }
}

/// Sum of the paper's `RotateCost` over the pattern's rotated operands,
/// unfused — a node-local estimate of what this pattern pays per step,
/// sharing the exact kernels in [`tce_cost::rotate`].
fn local_rotation_score(
    tree: &ExprTree,
    cm: &CostModel,
    node: NodeId,
    left: NodeId,
    right: NodeId,
    pat: &CannonPattern,
) -> f64 {
    let mut total = 0.0;
    for op in pat.rotated_operands() {
        let tensor = match op {
            tce_dist::Operand::Left => &tree.node(left).tensor,
            tce_dist::Operand::Right => &tree.node(right).tensor,
            tce_dist::Operand::Result => &tree.node(node).tensor,
        };
        if let Some(travel) = pat.travel_dim(op) {
            total += tce_cost::rotate::rotate_cost(
                tensor,
                &tree.space,
                cm.grid,
                pat.operand_dist(op),
                travel,
                &IndexSet::new(),
                &cm.chr,
            );
        }
    }
    total
}

/// Serve an optimization request with the planner named in
/// `cfg.planner`. All four planners share [`optimize`]'s input pins,
/// memory limit, and failure semantics; the heuristics additionally fall
/// back to one exact run before ever reporting infeasibility.
pub fn plan(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    match cfg.planner {
        Planner::Exact => plan_exact(tree, cm, cfg),
        Planner::Greedy => plan_greedy(tree, cm, cfg),
        Planner::Anneal => plan_heuristic(tree, cm, cfg, false),
        Planner::Portfolio => plan_heuristic(tree, cm, cfg, true),
    }
}

/// The exact DP; with a time budget, one greedy sample first whose cost
/// warm-starts the branch-and-bound (the winning plan is bit-identical
/// either way — only `dp.bnb_*` effort counters move). Without a budget
/// this is exactly one [`optimize`] call.
fn plan_exact(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let start = Instant::now();
    let mut run_cfg = cfg.clone();
    let (mut incumbents, mut evaluations) = (Vec::new(), 1);
    let warm_eligible = cfg.time_budget_ms.is_some()
        && cfg.fixed_patterns.is_none()
        && cfg.fixed_fusion.is_none()
        && !cfg.disable_pruning
        && !cfg.legacy_frontier;
    if warm_eligible {
        let mut session = Session::new(tree, cm, cfg);
        let greedy = session.greedy_sample();
        if let Some(cost) = session.eval(&greedy) {
            run_cfg.warm_upper_bound = Some(cfg.warm_upper_bound.map_or(cost, |ub| ub.min(cost)));
        }
        (incumbents, evaluations) = (session.incumbents, session.evaluations + 1);
    }
    let opt = optimize(tree, cm, &run_cfg)?;
    incumbents.push(opt.comm_cost);
    Ok(Planned {
        opt,
        planner: Planner::Exact,
        budget_exhausted: cfg
            .time_budget_ms
            .is_some_and(|ms| start.elapsed() >= Duration::from_millis(ms)),
        incumbents,
        evaluations,
    })
}

/// One greedy descent: patterns chosen node-locally, fusion left to the
/// restricted DP. Falls back to the exact DP when the pinned space is
/// infeasible, so feasibility verdicts match the exact planner.
fn plan_greedy(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
) -> Result<Planned, OptimizeError> {
    let mut session = Session::new(tree, cm, cfg);
    let greedy = session.greedy_sample();
    if session.eval(&greedy).is_some() {
        let opt = session.certify(&greedy, caller_floor(tree, cm, cfg))?;
        let budget_exhausted = session.out_of_budget();
        return Ok(Planned {
            opt,
            planner: Planner::Greedy,
            budget_exhausted,
            incumbents: session.incumbents,
            evaluations: session.evaluations,
        });
    }
    exact_fallback(session, Planner::Greedy)
}

/// Random-restart simulated annealing (`portfolio: false`) or the full
/// portfolio (`portfolio: true`: greedy seed, annealing refinement, and
/// the `(1+ε)·floor` early stop).
fn plan_heuristic(
    tree: &ExprTree,
    cm: &CostModel,
    cfg: &OptimizerConfig,
    portfolio: bool,
) -> Result<Planned, OptimizeError> {
    let mut session = Session::new(tree, cm, cfg);
    let mut rng = StdRng::seed_from_u64(cfg.anneal_seed);
    let floor = caller_floor(tree, cm, cfg);
    let stop_at = portfolio.then(|| (1.0 + cfg.gap_epsilon.max(0.0)) * floor.0);
    let (restarts, steps) = match cfg.time_budget_ms {
        Some(_) => (BUDGET_RESTART_CAP, DEFAULT_STEPS),
        None => (DEFAULT_RESTARTS, DEFAULT_STEPS),
    };
    let mut seed_sample = None;
    if portfolio {
        let greedy = session.greedy_sample();
        if session.eval(&greedy).is_some() {
            // Pin the realized fusion so the annealer starts from a full
            // assignment costing exactly the greedy incumbent.
            if let Ok(full) = session.realized_fusion(&greedy) {
                seed_sample = Some(full);
            }
        }
    }
    for restart in 0..restarts {
        if session.out_of_budget() || session.stopped(stop_at) {
            break;
        }
        let start = match (restart, &seed_sample) {
            (0, Some(s)) => s.clone(),
            _ => {
                let mut picked = None;
                for _ in 0..RESTART_SAMPLE_TRIES {
                    let s = session.random_sample(&mut rng);
                    if session.eval(&s).is_some() {
                        picked = Some(s);
                        break;
                    }
                    if session.out_of_budget() {
                        break;
                    }
                }
                match picked {
                    Some(s) => s,
                    None => continue,
                }
            }
        };
        session.anneal_from(start, steps, &mut rng, stop_at);
        if cfg.time_budget_ms.is_none() && restart + 1 >= DEFAULT_RESTARTS {
            break;
        }
    }
    let planner = if portfolio { Planner::Portfolio } else { Planner::Anneal };
    match session.best.clone() {
        Some((sample, _)) => {
            let opt = session.certify(&sample, floor)?;
            let budget_exhausted = session.out_of_budget() && !session.stopped(stop_at);
            Ok(Planned {
                opt,
                planner,
                budget_exhausted,
                incumbents: session.incumbents,
                evaluations: session.evaluations,
            })
        }
        None => exact_fallback(session, planner),
    }
}

/// No sampled configuration was feasible: decide feasibility the way the
/// exact planner does (and keep its plan when one exists).
fn exact_fallback(mut session: Session<'_>, planner: Planner) -> Result<Planned, OptimizeError> {
    let mut cfg = session.base.clone();
    cfg.planner = Planner::Exact;
    cfg.warm_upper_bound = None;
    session.evaluations += 1;
    let opt = optimize(session.tree, session.cm, &cfg)?;
    session.incumbents.push(opt.comm_cost);
    let budget_exhausted = session.out_of_budget();
    Ok(Planned {
        opt,
        planner,
        budget_exhausted,
        incumbents: session.incumbents,
        evaluations: session.evaluations,
    })
}
