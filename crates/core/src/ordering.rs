//! Mode-ordering strategies for ST-HOSVD.
//!
//! Alg. 1 may process the tensor modes in any order; the order changes the size
//! of the intermediate tensors and therefore the flop and communication counts
//! (Sec. VI-A, Fig. 8b). This module implements the orderings discussed in the
//! paper: the natural order, arbitrary user orders, the greedy flop-minimizing
//! heuristic of Vannieuwenhoven et al., and the greedy compression-ratio
//! heuristic the paper proposes as an alternative.
//!
//! The read side has the mirror-image problem: reconstructing a window also
//! applies one TTM per mode, in any order, and the order decides how large
//! the intermediates grow. [`window_order`] picks it for every window query.

use serde::{Deserialize, Serialize};

/// A strategy for choosing the ST-HOSVD mode-processing order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModeOrder {
    /// Process modes `0, 1, …, N−1` as written in Alg. 1.
    Natural,
    /// Process modes in an explicit order (must be a permutation of `0..N`).
    Custom(Vec<usize>),
    /// Greedily pick the unprocessed mode that minimizes the flops of the next
    /// Gram + TTM step, given (estimated) target ranks.
    GreedyFlops,
    /// Greedily pick the unprocessed mode with the largest compression ratio
    /// `I_n / R_n` (the alternative heuristic suggested in Sec. VIII-C).
    GreedyRatio,
    /// Process modes from the largest dimension to the smallest.
    LargestFirst,
    /// Process modes from the smallest dimension to the largest.
    SmallestFirst,
}

impl ModeOrder {
    /// Resolves the strategy to an explicit processing order.
    ///
    /// `dims` are the tensor dimensions; `rank_hint` supplies the per-mode
    /// target ranks needed by the greedy strategies (for tolerance-driven runs
    /// callers typically pass the dimensions themselves, which reduces the
    /// greedy strategies to dimension-based orderings).
    ///
    /// # Panics
    /// Panics if a custom order is not a permutation of `0..dims.len()`.
    pub fn resolve(&self, dims: &[usize], rank_hint: &[usize]) -> Vec<usize> {
        let n = dims.len();
        assert_eq!(
            rank_hint.len(),
            n,
            "ModeOrder::resolve: rank hint arity mismatch"
        );
        match self {
            ModeOrder::Natural => (0..n).collect(),
            ModeOrder::Custom(order) => {
                assert_eq!(order.len(), n, "custom order must cover every mode");
                let mut seen = vec![false; n];
                for &m in order {
                    assert!(m < n, "custom order contains out-of-range mode {m}");
                    assert!(!seen[m], "custom order repeats mode {m}");
                    seen[m] = true;
                }
                order.clone()
            }
            ModeOrder::LargestFirst => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| dims[b].cmp(&dims[a]).then(a.cmp(&b)));
                idx
            }
            ModeOrder::SmallestFirst => {
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| dims[a].cmp(&dims[b]).then(a.cmp(&b)));
                idx
            }
            ModeOrder::GreedyFlops => greedy_order(dims, rank_hint, GreedyCriterion::Flops),
            ModeOrder::GreedyRatio => greedy_order(dims, rank_hint, GreedyCriterion::Ratio),
        }
    }
}

enum GreedyCriterion {
    Flops,
    Ratio,
}

/// Greedy ordering: repeatedly pick the unprocessed mode optimizing the
/// criterion, updating the working dimensions as modes get truncated.
fn greedy_order(dims: &[usize], ranks: &[usize], criterion: GreedyCriterion) -> Vec<usize> {
    let n = dims.len();
    let mut current: Vec<f64> = dims.iter().map(|&d| d as f64).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut order = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let total: f64 = current.iter().product();
        let best = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let score = |m: usize| -> f64 {
                    match criterion {
                        // Flops of processing mode m next: Gram (2·I_m·J) plus
                        // TTM (2·R_m·J), with J the current total size.
                        GreedyCriterion::Flops => {
                            2.0 * current[m] * total + 2.0 * ranks[m] as f64 * total
                        }
                        // Negative compression ratio: larger I_m/R_m first.
                        GreedyCriterion::Ratio => -(current[m] / ranks[m].max(1) as f64),
                    }
                };
                score(a).partial_cmp(&score(b)).unwrap().then(a.cmp(&b))
            })
            .expect("remaining modes is non-empty");
        order.push(best);
        current[best] = ranks[best] as f64;
        remaining.retain(|&m| m != best);
    }
    order
}

/// The mode order in which a window query contracts the core: a pure
/// function of the core `ranks` and the window `extents` (rows kept per
/// mode), so every reader, chunk layout and cache size applies the same
/// order to the same window.
///
/// If every extent is ≤ its rank (a point or a small box) or every extent is
/// ≥ its rank (a full or wide window), the order is natural, `0..N`. That
/// keeps unit windows bit-identical to `element` and the full window
/// bit-identical to `reconstruct()`. Otherwise the window is *mixed* — a
/// hyperslice, say — and the modes whose extent is below their rank come
/// first, then the rest, each group in ascending mode order: the narrow
/// modes shrink the core before the wide ones expand it.
///
/// # Panics
/// Panics if `ranks` and `extents` differ in length.
pub fn window_order(ranks: &[usize], extents: &[usize]) -> Vec<usize> {
    assert_eq!(
        ranks.len(),
        extents.len(),
        "window_order: one extent per core mode"
    );
    let narrow = |n: &usize| extents[*n] < ranks[*n];
    let natural = 0..ranks.len();
    let all_narrow = extents.iter().zip(ranks).all(|(e, r)| e <= r);
    let all_wide = extents.iter().zip(ranks).all(|(e, r)| e >= r);
    if all_narrow || all_wide {
        return natural.collect();
    }
    let (mut order, wide): (Vec<usize>, Vec<usize>) = natural.partition(narrow);
    order.extend(wide);
    order
}

/// Enumerates every permutation of `0..n` — used by the Fig. 8b harness to
/// sweep all mode orders of a 4-way tensor (24 permutations, of which the
/// paper plots the 12 distinct-cost ones).
pub fn all_orders(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut current: Vec<usize> = (0..n).collect();
    permute(&mut current, 0, &mut out);
    out
}

fn permute(arr: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k == arr.len() {
        out.push(arr.clone());
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, out);
        arr.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_order() {
        let o = ModeOrder::Natural.resolve(&[3, 4, 5], &[1, 1, 1]);
        assert_eq!(o, vec![0, 1, 2]);
    }

    #[test]
    fn custom_order_validated() {
        let o = ModeOrder::Custom(vec![2, 0, 1]).resolve(&[3, 4, 5], &[1, 1, 1]);
        assert_eq!(o, vec![2, 0, 1]);
    }

    #[test]
    #[should_panic]
    fn custom_order_with_repeat_panics() {
        ModeOrder::Custom(vec![0, 0, 1]).resolve(&[3, 4, 5], &[1, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn custom_order_out_of_range_panics() {
        ModeOrder::Custom(vec![0, 1, 3]).resolve(&[3, 4, 5], &[1, 1, 1]);
    }

    #[test]
    fn largest_and_smallest_first() {
        let dims = [10usize, 40, 20];
        assert_eq!(
            ModeOrder::LargestFirst.resolve(&dims, &[1, 1, 1]),
            vec![1, 2, 0]
        );
        assert_eq!(
            ModeOrder::SmallestFirst.resolve(&dims, &[1, 1, 1]),
            vec![0, 2, 1]
        );
    }

    #[test]
    fn greedy_ratio_picks_highest_compression_first() {
        // Paper Fig. 8b setup: 25x250x250x250 → 10x10x100x100. Mode 1 has the
        // largest ratio (25x), so the ratio heuristic starts there.
        let dims = [25usize, 250, 250, 250];
        let ranks = [10usize, 10, 100, 100];
        let order = ModeOrder::GreedyRatio.resolve(&dims, &ranks);
        assert_eq!(order[0], 1);
    }

    #[test]
    fn greedy_flops_picks_cheapest_step_first() {
        // The smallest current dimension gives the cheapest Gram, so the flop
        // heuristic starts with mode 0 in the Fig. 8b configuration.
        let dims = [25usize, 250, 250, 250];
        let ranks = [10usize, 10, 100, 100];
        let order = ModeOrder::GreedyFlops.resolve(&dims, &ranks);
        assert_eq!(order[0], 0);
    }

    #[test]
    fn greedy_orders_are_permutations() {
        let dims = [12usize, 6, 9, 3];
        let ranks = [2usize, 3, 4, 1];
        for strat in [ModeOrder::GreedyFlops, ModeOrder::GreedyRatio] {
            let mut order = strat.resolve(&dims, &ranks);
            order.sort_unstable();
            assert_eq!(order, vec![0, 1, 2, 3]);
        }
    }

    /// Multiply-adds of reconstructing a window in `order`: each TTM costs
    /// its output size times the rank it contracts.
    fn window_madds(ranks: &[usize], extents: &[usize], order: &[usize]) -> u64 {
        let mut cur: Vec<u64> = ranks.iter().map(|&r| r as u64).collect();
        let mut total = 0;
        for &n in order {
            cur[n] = extents[n] as u64;
            total += cur.iter().product::<u64>() * ranks[n] as u64;
        }
        total
    }

    fn is_permutation(order: &[usize], n: usize) -> bool {
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        sorted.into_iter().eq(0..n)
    }

    #[test]
    fn window_order_is_always_a_permutation() {
        // Every (rank, extent) pair in 1..=4 over 1- to 4-way cores.
        for ndims in 1..=4usize {
            let cases = 16usize.pow(ndims as u32);
            for code in 0..cases {
                let (mut ranks, mut extents) = (Vec::new(), Vec::new());
                let mut c = code;
                for _ in 0..ndims {
                    ranks.push(1 + c % 4);
                    extents.push(1 + (c / 4) % 4);
                    c /= 16;
                }
                let order = window_order(&ranks, &extents);
                assert!(
                    is_permutation(&order, ndims),
                    "{ranks:?} {extents:?} → {order:?}"
                );
            }
        }
    }

    #[test]
    fn window_order_is_natural_unless_the_window_is_mixed() {
        let ranks = [114usize, 106, 8, 21];
        let natural = vec![0, 1, 2, 3];
        // Unit window, full window, all-narrow box, all-wide window.
        for extents in [
            [1usize, 1, 1, 1],
            [144, 144, 16, 40],
            [100, 3, 8, 20],
            [114, 120, 9, 21],
        ] {
            assert_eq!(window_order(&ranks, &extents), natural, "{extents:?}");
        }
        // A slice in mode 0 is mixed, but its narrow mode already leads.
        assert_eq!(window_order(&ranks, &[1, 144, 16, 40]), natural);
        // Narrow modes lead otherwise, each group in ascending order.
        assert_eq!(window_order(&ranks, &[144, 1, 16, 40]), vec![1, 0, 2, 3]);
        assert_eq!(window_order(&ranks, &[144, 144, 1, 40]), vec![2, 0, 1, 3]);
        assert_eq!(window_order(&ranks, &[144, 144, 16, 1]), vec![3, 0, 1, 2]);
        assert_eq!(window_order(&ranks, &[144, 5, 16, 2]), vec![1, 3, 0, 2]);
        // An extent equal to its rank counts as wide.
        assert_eq!(window_order(&ranks, &[144, 106, 1, 40]), vec![2, 0, 1, 3]);
        assert_eq!(window_order(&[3], &[1]), vec![0]);
    }

    #[test]
    fn window_order_depends_only_on_ranks_and_extents() {
        let ranks = [5usize, 7, 3];
        let extents = [9usize, 2, 3];
        let first = window_order(&ranks, &extents);
        for _ in 0..3 {
            assert_eq!(window_order(&ranks, &extents), first);
        }
        // Scaling a wide mode's extent further leaves the order alone.
        assert_eq!(window_order(&ranks, &[90, 2, 3]), first);
    }

    #[test]
    fn hyperslices_of_the_hcci_shape_contract_at_least_five_times_fewer_madds() {
        // The HCCI ledger artifact: ranks [114,106,8,21] of 144×144×16×40.
        let ranks = [114usize, 106, 8, 21];
        let dims = [144usize, 144, 16, 40];
        for mode in 1..4 {
            let mut extents = dims;
            extents[mode] = 1;
            let chosen = window_madds(&ranks, &extents, &window_order(&ranks, &extents));
            let natural = window_madds(&ranks, &extents, &[0, 1, 2, 3]);
            assert!(
                natural >= 5 * chosen,
                "slice in mode {mode}: {natural} vs {chosen} multiply-adds"
            );
        }
    }

    #[test]
    fn all_orders_count() {
        assert_eq!(all_orders(3).len(), 6);
        assert_eq!(all_orders(4).len(), 24);
        // Each is a permutation.
        for o in all_orders(3) {
            let mut s = o.clone();
            s.sort_unstable();
            assert_eq!(s, vec![0, 1, 2]);
        }
    }
}
