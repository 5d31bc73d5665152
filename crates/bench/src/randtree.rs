//! Deterministic pseudo-random contraction-tree generation for stress,
//! property, and scaling experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tce_expr::{ExprTree, IndexId, IndexSet, IndexSpace, Tensor};

/// Build a random left-deep contraction chain with `depth` internal nodes
/// over small index extents (`2..=max_extent`). Every contraction sums a
/// random non-empty subset of the running result's dimensions against a
/// fresh leaf and introduces one or two new dimensions, so the §3.1
/// contraction property always holds.
pub fn random_chain(seed: u64, depth: usize, max_extent: u64) -> ExprTree {
    assert!(depth >= 1, "a chain needs at least one contraction");
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15));

    // Pre-declare a pool of indices large enough for the whole chain.
    let mut space = IndexSpace::new();
    let pool: Vec<IndexId> = (0..(3 + 2 * depth))
        .map(|i| space.declare(&format!("x{i}"), rng.gen_range(2..=max_extent)))
        .collect();
    let mut next = 3usize;
    let take = |n: usize, next: &mut usize| -> Vec<IndexId> {
        let out = pool[*next..*next + n].to_vec();
        *next += n;
        out
    };

    let mut tree = ExprTree::new(space);
    let (i0, i1, i2) = (pool[0], pool[1], pool[2]);
    let a = tree.add_leaf(Tensor::new("A0", vec![i0, i1]));
    let b = tree.add_leaf(Tensor::new("B0", vec![i1, i2]));
    let mut current = tree
        .add_contract(Tensor::new("T0", vec![i0, i2]), IndexSet::from_iter([i1]), a, b)
        .expect("seed contraction is valid");
    let mut current_dims = vec![i0, i2];

    for d in 1..depth {
        // Summation set: random non-empty subset of the running dims.
        let mut sum = current_dims.clone();
        while sum.len() > 1 && rng.gen_bool(0.5) {
            let p = rng.gen_range(0..sum.len());
            sum.remove(p);
        }
        let n_new = rng.gen_range(1..=2usize);
        let new_ids = take(n_new, &mut next);
        let mut leaf_dims = sum.clone();
        leaf_dims.extend(new_ids.iter().copied());
        let leaf = tree.add_leaf(Tensor::new(format!("B{d}"), leaf_dims));
        let result_dims: Vec<IndexId> = current_dims
            .iter()
            .copied()
            .filter(|i| !sum.contains(i))
            .chain(new_ids.iter().copied())
            .collect();
        current = tree
            .add_contract(
                Tensor::new(format!("T{d}"), result_dims.clone()),
                IndexSet::from_iter(sum.iter().copied()),
                current,
                leaf,
            )
            .expect("generated contraction is well-formed");
        current_dims = result_dims;
    }
    tree.set_root(current);
    tree
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let a = random_chain(7, 4, 5);
        let b = random_chain(7, 4, 5);
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.node(id).tensor, b.node(id).tensor);
        }
    }

    #[test]
    fn groups_are_always_decomposable() {
        for seed in 0..30 {
            let t = random_chain(seed, 4, 5);
            for id in t.ids().filter(|&i| !t.node(i).is_leaf()) {
                t.contraction_groups(id).unwrap();
            }
        }
    }
}

/// A random tree mixing contraction, reduction, and element-wise nodes
/// (the Fig. 1 node kinds), for coverage of the non-Cannon optimizer and
/// executor paths. All extents even, so a 2×2 grid divides them.
pub fn random_mixed(seed: u64, max_extent: u64) -> ExprTree {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xD1B54A32D192ED03));
    let even = |rng: &mut StdRng| 2 * rng.gen_range(1..=max_extent.max(2) / 2);
    let mut sp = IndexSpace::new();
    let i = sp.declare("i", even(&mut rng));
    let j = sp.declare("j", even(&mut rng));
    let k = sp.declare("k", even(&mut rng));
    let t = sp.declare("t", even(&mut rng));
    let mut tree = ExprTree::new(sp);
    // A(i,j,t), B(j,k,t):  T1 = Σ_i A;  T2 = Σ_k B;  T3 = T1×T2;  root
    // varies by seed: either S = Σ_j T3 (Fig. 1) or a contraction of T3
    // with a fresh leaf.
    let a = tree.add_leaf(Tensor::new("A", vec![i, j, t]));
    let b = tree.add_leaf(Tensor::new("B", vec![j, k, t]));
    let t1 = tree.add_reduce(Tensor::new("T1", vec![j, t]), i, a).unwrap();
    let t2 = tree.add_reduce(Tensor::new("T2", vec![j, t]), k, b).unwrap();
    let t3 = tree.add_contract(Tensor::new("T3", vec![j, t]), IndexSet::new(), t1, t2).unwrap();
    let root = if rng.gen_bool(0.5) {
        tree.add_reduce(Tensor::new("S", vec![t]), j, t3).unwrap()
    } else {
        let c = tree.add_leaf(Tensor::new("C", vec![j, t]));
        tree.add_contract(Tensor::new("S", vec![]), IndexSet::from_iter([j, t]), t3, c).unwrap()
    };
    tree.set_root(root);
    tree
}

#[cfg(test)]
mod mixed_tests {
    use super::*;

    #[test]
    fn mixed_trees_are_valid() {
        for seed in 0..20 {
            let t = random_mixed(seed, 8);
            assert!(!t.is_contraction_tree(), "mixed trees have reduce nodes");
            assert!(t.total_op_count() > 0);
        }
    }
}

/// Parameters for [`random_tree`]: general trees (not just left-deep
/// chains) mixing proper contractions, element-wise / partially-shared
/// multiplies, and reductions.
#[derive(Clone, Copy, Debug)]
pub struct TreeParams {
    /// Internal-node budget; each tree gets between 1 and this many.
    pub max_internal: usize,
    /// Every extent is a multiple of this (choose the lcm of every grid
    /// dimension the plan may be simulated on, e.g. 4 for 2×2 and 4×4
    /// grids, so fused distributed loops always block exactly).
    pub divisor: u64,
    /// Extents are `divisor * k` with `k` in `1..=max_units`.
    pub max_units: u64,
    /// Maximum dimensions per tensor (keeps the simulator fast).
    pub max_arity: usize,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self { max_internal: 6, divisor: 4, max_units: 3, max_arity: 3 }
    }
}

/// Build a random general expression tree: a forest of subtrees grown by
/// contracting against fresh leaves (proper contractions whose summation
/// set equals the shared indices), multiplying with partial sharing or
/// partial summation (the element-wise optimizer path), and reducing
/// single indices, with subtrees joined pairwise at the end. Every extent
/// is a multiple of `p.divisor`, so any grid whose dimensions divide it
/// simulates the result exactly. Deterministic in `seed`.
pub fn random_tree(seed: u64, p: &TreeParams) -> ExprTree {
    assert!(p.max_internal >= 1 && p.max_arity >= 2 && p.divisor >= 1 && p.max_units >= 1);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA076_1D64_78BD_642F).wrapping_add(1));
    let n_internal = rng.gen_range(1..=p.max_internal);

    // Pre-declare an index pool; each new dimension is taken once, so
    // distinct subtrees never share an index (joins are outer products or
    // partially-summed multiplies over disjoint dimension sets).
    let mut space = IndexSpace::new();
    let pool: Vec<IndexId> = (0..(2 * p.max_internal + 3))
        .map(|i| space.declare(&format!("x{i}"), p.divisor * rng.gen_range(1..=p.max_units)))
        .collect();
    let mut next = 0usize;
    let mut tree = ExprTree::new(space);
    let mut leaf_no = 0usize;
    let mut int_no = 0usize;

    // Open subtree roots: (node, result dims).
    let mut open: Vec<(tce_expr::NodeId, Vec<IndexId>)> = Vec::new();

    let fresh = |rng: &mut StdRng, next: &mut usize, lo: usize, hi: usize| -> Vec<IndexId> {
        let avail = pool.len() - *next;
        let n = rng.gen_range(lo..=hi).min(avail);
        let out = pool[*next..*next + n].to_vec();
        *next += n;
        out
    };

    // Pick a random non-empty subset of `dims` with `lo..=hi` elements.
    let subset = |rng: &mut StdRng, dims: &[IndexId], lo: usize, hi: usize| -> Vec<IndexId> {
        let hi = hi.min(dims.len());
        let lo = lo.min(hi).max(1);
        let n = rng.gen_range(lo..=hi);
        let mut pick: Vec<IndexId> = dims.to_vec();
        while pick.len() > n {
            let i = rng.gen_range(0..pick.len());
            pick.remove(i);
        }
        pick
    };

    while int_no < n_internal {
        let may_join = open.len() >= 2;
        let may_spawn = open.len() < 3 && pool.len() - next >= 2;
        let action = rng.gen_range(0..10u32);
        if open.is_empty() || (may_spawn && action < 3) {
            // Spawn: a fresh proper two-leaf contraction as a new subtree.
            let shared = fresh(&mut rng, &mut next, 1, 1);
            let l_extra = fresh(&mut rng, &mut next, 0, p.max_arity - 1);
            let r_extra = fresh(&mut rng, &mut next, 0, (p.max_arity - 1).min(1));
            let mut ld = shared.clone();
            ld.extend(l_extra.iter().copied());
            let mut rd = shared.clone();
            rd.extend(r_extra.iter().copied());
            let l = tree.add_leaf(Tensor::new(format!("A{leaf_no}"), ld));
            let r = tree.add_leaf(Tensor::new(format!("A{}", leaf_no + 1), rd));
            leaf_no += 2;
            let extras: Vec<IndexId> = l_extra.iter().chain(r_extra.iter()).copied().collect();
            // Sum the shared dim away (proper contraction) unless that
            // would leave a scalar; element-wise on the shared dim
            // otherwise. Then trim to the arity cap by summing extras.
            let mut sum: Vec<IndexId> = Vec::new();
            let mut dims: Vec<IndexId>;
            if !extras.is_empty() && rng.gen_bool(0.7) {
                sum.push(shared[0]);
                dims = extras;
            } else {
                dims = shared.clone();
                dims.extend(extras);
            }
            while dims.len() > p.max_arity {
                let i = rng.gen_range(0..dims.len());
                sum.push(dims.remove(i));
            }
            let node = tree
                .add_contract(
                    Tensor::new(format!("T{int_no}"), dims.clone()),
                    IndexSet::from_iter(sum),
                    l,
                    r,
                )
                .expect("spawned contraction is well-formed");
            int_no += 1;
            open.push((node, dims));
        } else if may_join && (action < 6 || int_no + open.len() > n_internal) {
            // Join two open subtrees: dims are disjoint by construction, so
            // this is an outer product, optionally summing some dims away
            // (one-sided sums exercise the element-wise path).
            let ai = rng.gen_range(0..open.len());
            let (a, ad) = open.remove(ai);
            let bi = rng.gen_range(0..open.len());
            let (b, bd) = open.remove(bi);
            let mut union: Vec<IndexId> = ad.clone();
            union.extend(bd.iter().copied());
            let mut sum: Vec<IndexId> = Vec::new();
            // Sum enough away to respect the arity cap, then maybe more.
            let mut keep = union.clone();
            while keep.len() > p.max_arity || (keep.len() > 1 && rng.gen_bool(0.4)) {
                let i = rng.gen_range(0..keep.len());
                sum.push(keep.remove(i));
            }
            let node = tree
                .add_contract(
                    Tensor::new(format!("T{int_no}"), keep.clone()),
                    IndexSet::from_iter(sum),
                    a,
                    b,
                )
                .expect("join contraction is well-formed");
            int_no += 1;
            open.push((node, keep));
        } else {
            // Extend one open subtree.
            let oi = rng.gen_range(0..open.len());
            let (cur, cd) = open[oi].clone();
            let kind = rng.gen_range(0..10u32);
            if kind < 3 && cd.len() >= 2 {
                // Reduce one dimension away.
                let di = rng.gen_range(0..cd.len());
                let dropped = cd[di];
                let dims: Vec<IndexId> = cd.iter().copied().filter(|&i| i != dropped).collect();
                let node = tree
                    .add_reduce(Tensor::new(format!("T{int_no}"), dims.clone()), dropped, cur)
                    .expect("reduce is well-formed");
                open[oi] = (node, dims);
            } else if kind < 7 {
                // Contraction against a fresh leaf: sum a subset of the
                // running dims, introduce fresh ones. Usually proper; when
                // the arity cap forces extra one-sided summation it drops
                // to the element-wise path.
                let sum = subset(&mut rng, &cd, 1, cd.len());
                let keep: Vec<IndexId> = cd.iter().copied().filter(|i| !sum.contains(i)).collect();
                let want_fresh = if keep.is_empty() { 1 } else { usize::from(rng.gen_bool(0.7)) }
                    .min(p.max_arity.saturating_sub(sum.len()));
                let newd = fresh(&mut rng, &mut next, want_fresh, want_fresh);
                if keep.is_empty() && newd.is_empty() {
                    continue; // out of fresh dims; try another action
                }
                let mut leaf_dims = sum.clone();
                leaf_dims.extend(newd.iter().copied());
                let leaf = tree.add_leaf(Tensor::new(format!("A{leaf_no}"), leaf_dims));
                leaf_no += 1;
                let mut dims = keep;
                dims.extend(newd.iter().copied());
                dims.truncate(p.max_arity);
                let extra_sum: Vec<IndexId> = cd
                    .iter()
                    .chain(newd.iter())
                    .copied()
                    .filter(|i| !dims.contains(i) && !sum.contains(i))
                    .collect();
                let mut full_sum = sum;
                full_sum.extend(extra_sum);
                let node = tree
                    .add_contract(
                        Tensor::new(format!("T{int_no}"), dims.clone()),
                        IndexSet::from_iter(full_sum),
                        cur,
                        leaf,
                    )
                    .expect("extend contraction is well-formed");
                open[oi] = (node, dims);
            } else {
                // Partially-shared multiply: the leaf carries a subset of
                // the running dims; summing a strict subset of the shared
                // dims (or none) sends the node down the element-wise path.
                let shared = subset(&mut rng, &cd, 1, cd.len());
                let sum = if shared.len() > 1 && rng.gen_bool(0.5) {
                    subset(&mut rng, &shared, 1, shared.len() - 1)
                } else if rng.gen_bool(0.3) {
                    shared.clone()
                } else {
                    Vec::new()
                };
                let dims: Vec<IndexId> = cd.iter().copied().filter(|i| !sum.contains(i)).collect();
                if dims.is_empty() {
                    continue; // would make a scalar intermediate
                }
                let leaf = tree.add_leaf(Tensor::new(format!("A{leaf_no}"), shared.clone()));
                leaf_no += 1;
                let node = tree
                    .add_contract(
                        Tensor::new(format!("T{int_no}"), dims.clone()),
                        IndexSet::from_iter(sum),
                        cur,
                        leaf,
                    )
                    .expect("multiply is well-formed");
                open[oi] = (node, dims);
            }
            int_no += 1;
        }
    }

    // Join the remaining open subtrees into a single root.
    while open.len() > 1 {
        let (a, ad) = open.remove(rng.gen_range(0..open.len()));
        let (b, bd) = open.remove(rng.gen_range(0..open.len()));
        let mut union: Vec<IndexId> = ad;
        union.extend(bd);
        let mut sum: Vec<IndexId> = Vec::new();
        let mut keep = union;
        while keep.len() > p.max_arity {
            let i = rng.gen_range(0..keep.len());
            sum.push(keep.remove(i));
        }
        let node = tree
            .add_contract(
                Tensor::new(format!("T{int_no}"), keep.clone()),
                IndexSet::from_iter(sum),
                a,
                b,
            )
            .expect("final join is well-formed");
        int_no += 1;
        open.push((node, keep));
    }
    let (root, _) = open.pop().expect("at least one subtree was grown");
    tree.set_root(root);
    tree
}

/// Build an adversarially *skewed* tree for scheduler stress: one heavy
/// contraction whose combine stream dwarfs every other node, surrounded by
/// trivial reduce / element-wise nodes that each produce only a handful of
/// combine blocks. A contiguous equal-count partition of such a tree's
/// per-node streams leaves most workers idle while one drags; the
/// key-partitioned scheduler must balance it — and still merge
/// bit-identically. All
/// extents are even (multiples of 2), so 2×2 grids divide them.
/// Deterministic in `seed`.
pub fn skewed_tree(seed: u64) -> ExprTree {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(7));
    let even = |rng: &mut StdRng, lo: u64, hi: u64| 2 * rng.gen_range(lo..=hi);
    let mut sp = IndexSpace::new();
    // Heavy core: T1(a,d,e) = Σ_{b,c} A(a,b,c) · B(b,c,d,e). Two summed
    // dimensions and a 4-D right operand blow up the per-node option
    // count, concentrating the combine stream in this single node.
    let a_ix = sp.declare("a", even(&mut rng, 2, 6));
    let b_ix = sp.declare("b", even(&mut rng, 2, 6));
    let c_ix = sp.declare("c", even(&mut rng, 2, 6));
    let d_ix = sp.declare("d", even(&mut rng, 2, 6));
    let e_ix = sp.declare("e", even(&mut rng, 2, 6));
    let mut tree = ExprTree::new(sp);
    let a = tree.add_leaf(Tensor::new("A", vec![a_ix, b_ix, c_ix]));
    let b = tree.add_leaf(Tensor::new("B", vec![b_ix, c_ix, d_ix, e_ix]));
    let t1 = tree
        .add_contract(
            Tensor::new("T1", vec![a_ix, d_ix, e_ix]),
            IndexSet::from_iter([b_ix, c_ix]),
            a,
            b,
        )
        .expect("heavy contraction is well-formed");
    // Trivial tail: a chain of single-index reductions (tiny block counts)
    // ending in a near-free element-wise multiply against a small leaf.
    let t2 = tree.add_reduce(Tensor::new("T2", vec![a_ix, d_ix]), e_ix, t1).expect("reduce e");
    let t3 = tree.add_reduce(Tensor::new("T3", vec![a_ix]), d_ix, t2).expect("reduce d");
    let c_leaf = tree.add_leaf(Tensor::new("C", vec![a_ix]));
    let root = if rng.gen_bool(0.5) {
        // Element-wise multiply sharing the surviving dim.
        tree.add_contract(Tensor::new("S", vec![a_ix]), IndexSet::new(), t3, c_leaf)
            .expect("element-wise root")
    } else {
        // Full inner product down to a scalar.
        tree.add_contract(Tensor::new("S", vec![]), IndexSet::from_iter([a_ix]), t3, c_leaf)
            .expect("scalar root")
    };
    tree.set_root(root);
    tree
}

#[cfg(test)]
mod skewed_tests {
    use super::*;

    #[test]
    fn skewed_trees_are_deterministic_and_even() {
        for seed in 0..20 {
            let x = skewed_tree(seed);
            let y = skewed_tree(seed);
            assert_eq!(x.len(), y.len(), "seed {seed}");
            for id in x.ids() {
                assert_eq!(x.node(id).tensor, y.node(id).tensor, "seed {seed}");
                for &d in &x.node(id).tensor.dims {
                    assert_eq!(x.space.extent(d) % 2, 0, "seed {seed}: odd extent");
                }
            }
            assert!(!x.node(x.root()).is_leaf(), "seed {seed}");
        }
    }
}

#[cfg(test)]
mod general_tests {
    use super::*;

    #[test]
    fn general_trees_are_deterministic_and_valid() {
        for seed in 0..60 {
            let p = TreeParams::default();
            let a = random_tree(seed, &p);
            let b = random_tree(seed, &p);
            assert_eq!(a.len(), b.len(), "seed {seed}");
            for id in a.ids() {
                assert_eq!(a.node(id).tensor, b.node(id).tensor, "seed {seed}");
            }
            // Root is internal and every extent divides the candidate grids.
            assert!(!a.node(a.root()).is_leaf(), "seed {seed}");
            for id in a.ids() {
                for &d in &a.node(id).tensor.dims {
                    assert_eq!(a.space.extent(d) % p.divisor, 0, "seed {seed}");
                    assert!(a.node(id).tensor.dims.len() <= p.max_arity, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn general_trees_round_trip_through_tce_source() {
        use tce_expr::printer::render_tce_source;
        for seed in 0..40 {
            let t = random_tree(seed, &TreeParams::default());
            let src = render_tce_source(&t);
            let back = tce_expr::parse(&src)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
                .to_sequence()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"))
                .to_tree()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_eq!(t.len(), back.len(), "seed {seed}\n{src}");
            assert_eq!(
                t.node(t.root()).tensor.name,
                back.node(back.root()).tensor.name,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn general_trees_cover_all_node_kinds() {
        let p = TreeParams::default();
        let (mut proper, mut improper, mut reduce) = (0, 0, 0);
        for seed in 0..40 {
            let t = random_tree(seed, &p);
            for id in t.ids().filter(|&i| !t.node(i).is_leaf()) {
                match &t.node(id).kind {
                    tce_expr::NodeKind::Contract { .. } => {
                        if t.contraction_groups(id).is_ok() {
                            proper += 1;
                        } else {
                            improper += 1;
                        }
                    }
                    tce_expr::NodeKind::Reduce { .. } => reduce += 1,
                    tce_expr::NodeKind::Leaf => unreachable!(),
                }
            }
        }
        assert!(proper > 0 && improper > 0 && reduce > 0, "{proper}/{improper}/{reduce}");
    }
}
