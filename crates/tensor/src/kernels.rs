//! Explicit-width f32 reduce kernels — the arithmetic hot loop of every
//! collective reduce step.
//!
//! The scalar `a[i] += b[i]` loops previously inlined at each reduce site
//! (ring chunks, the SSAR k-way merge, coalesce duplicate-summing,
//! scatter-add) leave the autovectorizer guessing about trip counts and
//! aliasing. These kernels restructure the same arithmetic into fixed-width
//! lane chunks ([`LANES`] elements via `chunks_exact` + `[f32; LANES]`
//! array views), which LLVM reliably lowers to packed SIMD on every
//! target — no `unsafe`, no intrinsics, no feature detection, so the
//! crate-wide `#![forbid(unsafe_code)]` stands.
//!
//! Results are **bitwise identical** to the scalar fold: every element sees
//! exactly the same operation on the same operands in the same order; only
//! the loop structure changes. That is what lets the collectives swap these
//! in without disturbing the bitwise-determinism proofs in the analyzer.
//!
//! The `*_scalar` twins are reference implementations kept for the
//! proptests and the `bench_kernels` microbench; production reduce sites
//! use the lane versions (the `scalar-reduce` lint flags hand-rolled
//! element-wise `+=` loops in `ops.rs`/`merge.rs`).
//!
//! The dense matmul family (`DenseTensor::{matmul, matmul_tn, matmul_nt}`)
//! is also a [`scaled_add`] consumer: each output row accumulates one axpy
//! per inner index. The same bitwise rule holds there — every output
//! element starts at 0.0 and adds its products in ascending inner-index
//! order, with no FMA — so the products equal the naive triple loop bit
//! for bit (proptested in `proptests.rs`).

/// Lane width of the explicit-width kernels. Eight f32 lanes fill one
/// AVX2 register and two NEON registers — wide enough to saturate either,
/// narrow enough that the `chunks_exact` remainder stays cheap.
pub const LANES: usize = 8;

/// `dst[i] += src[i]`. Panics on length mismatch.
#[inline]
pub fn add_assign(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in add_assign");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        let da: &mut [f32; LANES] = dc.try_into().expect("chunk is LANES wide");
        let sa: &[f32; LANES] = sc.try_into().expect("chunk is LANES wide");
        for l in 0..LANES {
            da[l] += sa[l];
        }
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 += s1;
    }
}

/// `dst[i] += alpha * src[i]` (axpy). Panics on length mismatch.
#[inline]
pub fn scaled_add(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in scaled_add");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (dc, sc) in d.by_ref().zip(s.by_ref()) {
        let da: &mut [f32; LANES] = dc.try_into().expect("chunk is LANES wide");
        let sa: &[f32; LANES] = sc.try_into().expect("chunk is LANES wide");
        for l in 0..LANES {
            da[l] += alpha * sa[l];
        }
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 += alpha * s1;
    }
}

/// `dst[i] *= alpha`.
#[inline]
pub fn scale(dst: &mut [f32], alpha: f32) {
    let mut d = dst.chunks_exact_mut(LANES);
    for dc in d.by_ref() {
        let da: &mut [f32; LANES] = dc.try_into().expect("chunk is LANES wide");
        for d1 in da {
            *d1 *= alpha;
        }
    }
    for d1 in d.into_remainder() {
        *d1 *= alpha;
    }
}

/// Fused receive-reduce-forward step: `v = dst[i] + fwd[i]` written to
/// **both** slices, so the accumulator and the packet forwarded to the
/// next ring neighbour are updated in one memory pass instead of an
/// add pass plus a staging copy. Summation order is `dst + fwd`, matching
/// the unfused `dst += fwd` fold bitwise. Panics on length mismatch.
#[inline]
pub fn add_assign_both(dst: &mut [f32], fwd: &mut [f32]) {
    assert_eq!(dst.len(), fwd.len(), "length mismatch in add_assign_both");
    let mut d = dst.chunks_exact_mut(LANES);
    let mut f = fwd.chunks_exact_mut(LANES);
    for (dc, fc) in d.by_ref().zip(f.by_ref()) {
        let da: &mut [f32; LANES] = dc.try_into().expect("chunk is LANES wide");
        let fa: &mut [f32; LANES] = fc.try_into().expect("chunk is LANES wide");
        for l in 0..LANES {
            let v = da[l] + fa[l];
            da[l] = v;
            fa[l] = v;
        }
    }
    for (d1, f1) in d.into_remainder().iter_mut().zip(f.into_remainder()) {
        let v = *d1 + *f1;
        *d1 = v;
        *f1 = v;
    }
}

/// Scalar reference for [`add_assign`]; kept for proptests and microbench.
pub fn add_assign_scalar(dst: &mut [f32], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in add_assign");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += s;
    }
}

/// Scalar reference for [`scaled_add`]; kept for proptests and microbench.
pub fn scaled_add_scalar(dst: &mut [f32], alpha: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "length mismatch in scaled_add");
    for (d, s) in dst.iter_mut().zip(src) {
        *d += alpha * s;
    }
}

/// Scalar reference for [`scale`].
pub fn scale_scalar(dst: &mut [f32], alpha: f32) {
    for d in dst.iter_mut() {
        *d *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random data exercising a spread of exponents.
    fn data(len: usize, seed: u32) -> Vec<f32> {
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                // Map to roughly [-8, 8) with varied mantissas.
                (x as f32 / u32::MAX as f32 - 0.5) * 16.0
            })
            .collect()
    }

    /// Lengths covering empty, sub-lane, exact-lane and ragged tails.
    const LENS: [usize; 9] = [0, 1, 3, 7, 8, 9, 16, 31, 1000];

    #[test]
    fn add_assign_bitwise_matches_scalar() {
        for &len in &LENS {
            let src = data(len, 1);
            let mut a = data(len, 2);
            let mut b = a.clone();
            add_assign(&mut a, &src);
            add_assign_scalar(&mut b, &src);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn scaled_add_bitwise_matches_scalar() {
        for &len in &LENS {
            let src = data(len, 3);
            let mut a = data(len, 4);
            let mut b = a.clone();
            scaled_add(&mut a, 0.37, &src);
            scaled_add_scalar(&mut b, 0.37, &src);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn scale_bitwise_matches_scalar() {
        for &len in &LENS {
            let mut a = data(len, 5);
            let mut b = a.clone();
            scale(&mut a, -1.75);
            scale_scalar(&mut b, -1.75);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "len {len}"
            );
        }
    }

    #[test]
    fn add_assign_both_writes_same_sum_to_both() {
        for &len in &LENS {
            let mut dst = data(len, 6);
            let mut fwd = data(len, 7);
            let mut expect = dst.clone();
            add_assign_scalar(&mut expect, &fwd);
            add_assign_both(&mut dst, &mut fwd);
            let want: Vec<u32> = expect.iter().map(|v| v.to_bits()).collect();
            assert_eq!(dst.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "len {len}");
            assert_eq!(fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let mut a = vec![0.0; 4];
        add_assign(&mut a, &[1.0; 5]);
    }
}
