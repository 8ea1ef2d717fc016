//! In-crate property tests of the tensor algebra the whole workspace
//! leans on. (Cross-crate properties — Algorithm 1, collectives — live in
//! the top-level `tests/proptests.rs`.)

#![cfg(test)]

use crate::{coalesce, column_partition, is_coalesced, row_partition, DenseTensor, RowSparse};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = DenseTensor> {
    prop::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |data| DenseTensor::from_vec(rows, cols, data))
}

/// Largest operand side in the matmul-family proptest.
const MAX_SIDE: usize = 19;

/// Entries with mixed signs and exact (signed) zeros: half the draws are
/// uniform in `[-100, 100)`, the rest `0.0` or `-0.0`.
fn mixed_entries(len: usize) -> impl Strategy<Value = Vec<f32>> {
    let entry = (0u8..4, -100.0f32..100.0).prop_map(|(pick, v)| match pick {
        0 => 0.0,
        1 => -0.0,
        _ => v,
    });
    prop::collection::vec(entry, len)
}

/// The `slot`-th `rows × cols` operand cut from a pool of mixed entries.
fn operand(pool: &[f32], slot: usize, rows: usize, cols: usize) -> DenseTensor {
    let start = slot * MAX_SIDE * MAX_SIDE;
    DenseTensor::from_vec(rows, cols, pool[start..start + rows * cols].to_vec())
}

/// The naive ordered triple loop, as bit patterns: each `(i, j)` element
/// starts at 0.0 and adds `term(i, j, p)` for ascending `p`.
fn naive_bits(
    rows: usize,
    cols: usize,
    inner: usize,
    term: impl Fn(usize, usize, usize) -> f32,
) -> Vec<u32> {
    let mut out = Vec::with_capacity(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0.0f32;
            for p in 0..inner {
                acc += term(i, j, p);
            }
            out.push(acc.to_bits());
        }
    }
    out
}

fn bits(t: &DenseTensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_family_bitwise_matches_naive_ordered_loop(
        // 0..=19 covers zero sizes and rows that are not a multiple of LANES.
        n in 0usize..=MAX_SIDE,
        k in 0usize..=MAX_SIDE,
        m in 0usize..=MAX_SIDE,
        pool in mixed_entries(4 * MAX_SIDE * MAX_SIDE),
    ) {
        let (a, b) = (operand(&pool, 0, n, k), operand(&pool, 1, k, m));
        let (c, d) = (operand(&pool, 2, n, m), operand(&pool, 3, m, k));
        // a(n×k) · b(k×m)
        let want = naive_bits(n, m, k, |i, j, p| a.row(i)[p] * b.row(p)[j]);
        prop_assert_eq!(bits(&a.matmul(&b)), want);
        // aᵀ(k×n) · c(n×m): the shared index runs over a's rows.
        let want = naive_bits(k, m, n, |p, j, i| a.row(i)[p] * c.row(i)[j]);
        prop_assert_eq!(bits(&a.matmul_tn(&c)), want);
        // a(n×k) · dᵀ(k×m) with d m×k.
        let want = naive_bits(n, m, k, |i, j, p| a.row(i)[p] * d.row(j)[p]);
        prop_assert_eq!(bits(&a.matmul_nt(&d)), want);
    }

    #[test]
    fn concat_columns_inverts_slicing(t in tensor(4, 9), cut1 in 0usize..9, cut2 in 0usize..9) {
        let (a, b) = (cut1.min(cut2), cut1.max(cut2));
        let parts = [t.slice_columns(0, a), t.slice_columns(a, b), t.slice_columns(b, 9)];
        let non_empty: Vec<DenseTensor> =
            parts.iter().filter(|p| p.cols() > 0).cloned().collect();
        if !non_empty.is_empty() {
            prop_assert_eq!(DenseTensor::concat_columns(&non_empty), t);
        }
    }

    #[test]
    fn concat_rows_inverts_row_gather(t in tensor(6, 3)) {
        let blocks: Vec<DenseTensor> =
            (0..6u32).map(|r| t.gather_rows(&[r])).collect();
        prop_assert_eq!(DenseTensor::concat_rows(&blocks), t);
    }

    #[test]
    fn axpy_matches_scalar_arithmetic(a in tensor(2, 3), b in tensor(2, 3), alpha in -5.0f32..5.0) {
        let mut got = a.clone();
        got.axpy(alpha, &b);
        for i in 0..a.len() {
            let want = a.as_slice()[i] + alpha * b.as_slice()[i];
            prop_assert!((got.as_slice()[i] - want).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in tensor(3, 4),
        b in tensor(4, 2),
        c in tensor(4, 2),
    ) {
        // A·(B + C) == A·B + A·C, within f32 tolerance.
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        prop_assert!(lhs.approx_eq(&rhs, 1e-1), "diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn sparse_dense_roundtrip(
        indices in prop::collection::vec(0u32..20, 0..15),
        dim in 1usize..4,
    ) {
        let values = DenseTensor::full(indices.len(), dim, 1.5);
        let sparse = RowSparse::new(indices, values);
        let dense = sparse.to_dense(20);
        let back = RowSparse::from_dense_nonzero(&dense);
        prop_assert!(is_coalesced(&back));
        prop_assert!(back.to_dense(20).approx_eq(&dense, 1e-5));
        let coalesced = coalesce(&sparse);
        prop_assert_eq!(back.indices(), coalesced.indices());
    }

    #[test]
    fn partitions_tile_exactly(total in 1usize..200, parts in 1usize..20) {
        let cols = column_partition(total, parts);
        prop_assert_eq!(cols.len(), parts);
        prop_assert_eq!(cols[0].start, 0);
        prop_assert_eq!(cols.last().unwrap().end, total);
        for w in cols.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start);
        }
        // Near-equal widths: max - min <= 1.
        let widths: Vec<usize> = cols.iter().map(|c| c.width()).collect();
        prop_assert!(widths.iter().max().unwrap() - widths.iter().min().unwrap() <= 1);

        let rows = row_partition(total, parts);
        prop_assert_eq!(rows.iter().map(|r| r.len()).sum::<usize>(), total);
    }

    #[test]
    fn lane_kernels_bitwise_match_scalar_fold(
        // 0..=20 straddles the lane width: exercises empty input, lengths
        // below LANES (pure remainder), exactly LANES, and ragged tails.
        len in 0usize..=20,
        seed_a in prop::collection::vec(-100.0f32..100.0, 24),
        seed_b in prop::collection::vec(-100.0f32..100.0, 24),
        alpha in -5.0f32..5.0,
    ) {
        use crate::kernels;
        let src = &seed_b[..len];
        let mut lane = seed_a[..len].to_vec();
        let mut scalar = lane.clone();
        kernels::add_assign(&mut lane, src);
        kernels::add_assign_scalar(&mut scalar, src);
        prop_assert_eq!(
            lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        kernels::scaled_add(&mut lane, alpha, src);
        kernels::scaled_add_scalar(&mut scalar, alpha, src);
        prop_assert_eq!(
            lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            scalar.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Fused receive-reduce-forward: both outputs equal the scalar sum.
        let mut fwd = src.to_vec();
        kernels::add_assign_scalar(&mut scalar, src);
        kernels::add_assign_both(&mut lane, &mut fwd);
        let want: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(lane.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn coalesce_row_count_bounds(
        indices in prop::collection::vec(0u32..10, 0..40),
    ) {
        let n = indices.len();
        let sparse = RowSparse::new(indices.clone(), DenseTensor::zeros(n, 2));
        let c = coalesce(&sparse);
        let mut unique = indices;
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(c.nnz_rows(), unique.len());
        prop_assert!(c.nnz_rows() <= n);
    }
}
