//! Property-based tests for the matrix substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use socsense_matrix::logprob::{log_sum_exp2, normalize_log_pair, odds_to_prob, prob_to_odds};
use socsense_matrix::{FixedBitSet, SparseBinaryMatrix};

fn entries_strategy() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32)>)> {
    (1u32..40, 1u32..40).prop_flat_map(|(n, m)| {
        let entries = vec((0..n, 0..m), 0..120);
        (Just(n), Just(m), entries)
    })
}

proptest! {
    #[test]
    fn sparse_row_col_views_agree((n, m, entries) in entries_strategy()) {
        let mat = SparseBinaryMatrix::from_entries(n, m, entries.clone());
        // Every inserted entry is visible on both axes.
        for &(r, c) in &entries {
            prop_assert!(mat.contains(r, c));
            prop_assert!(mat.row(r).contains(&c));
            prop_assert!(mat.col(c).contains(&r));
        }
        // nnz is consistent across views.
        let by_rows: usize = (0..n).map(|r| mat.row_nnz(r)).sum();
        let by_cols: usize = (0..m).map(|c| mat.col_nnz(c)).sum();
        prop_assert_eq!(by_rows, mat.nnz());
        prop_assert_eq!(by_cols, mat.nnz());
        // Rows are sorted and unique.
        for r in 0..n {
            let row = mat.row(r);
            prop_assert!(row.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn transpose_is_involutive((n, m, entries) in entries_strategy()) {
        // Reading the cells through the column index and swapping the
        // axes back gives the matrix back.
        let mat = SparseBinaryMatrix::from_entries(n, m, entries);
        let by_cols = (0..m).flat_map(|c| mat.col(c).iter().map(move |&r| (r, c)));
        prop_assert_eq!(SparseBinaryMatrix::from_entries(n, m, by_cols), mat);
    }

    #[test]
    fn bitset_matches_reference_model(indices in vec(0usize..200, 0..80)) {
        let s = FixedBitSet::from_indices(200, indices.iter().copied());
        let mut reference: Vec<usize> = indices.clone();
        reference.sort_unstable();
        reference.dedup();
        prop_assert_eq!(s.iter_ones().collect::<Vec<_>>(), reference.clone());
        prop_assert_eq!(s.count_ones(), reference.len());
        for i in 0..200 {
            prop_assert_eq!(s.get(i), reference.binary_search(&i).is_ok());
        }
    }

    #[test]
    fn log_sum_exp_is_commutative_and_monotone(a in -700.0f64..0.0, b in -700.0f64..0.0) {
        let ab = log_sum_exp2(a, b);
        let ba = log_sum_exp2(b, a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!(ab >= a.max(b));
    }

    #[test]
    fn normalized_pair_is_a_distribution(a in -700.0f64..0.0, b in -700.0f64..0.0) {
        let (p1, p0) = normalize_log_pair(a, b);
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!((0.0..=1.0).contains(&p0));
        prop_assert!((p1 + p0 - 1.0).abs() < 1e-12);
        // Ordering preserved.
        prop_assert_eq!(a >= b, p1 >= p0);
    }

    #[test]
    fn odds_prob_round_trip(p in 0.0f64..0.999) {
        let back = odds_to_prob(prob_to_odds(p));
        prop_assert!((back - p).abs() < 1e-9);
    }
}
