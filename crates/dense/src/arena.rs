//! Thread-local packing scratch.
//!
//! Every macro-kernel invocation needs two aligned staging panels (packed A
//! and packed B). Allocating them per call would dominate small problems, so
//! each thread keeps one growable buffer that persists across calls — the
//! same idea as the paper's reusable pinned-buffer pool (§V-A2), minus the
//! pinning. The buffer is `u64`-backed so a single arena serves both `f32`
//! and `f64` panels (alignment 8 ≥ alignment of every [`Scalar`]). A second
//! buffer of the same kind stages operands for kernels that call the engine
//! while holding them (`potrf`'s factored diagonal block).

use crate::Scalar;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static STAGING: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Words needed to hold `len` elements of `T`.
fn words_for<T: Scalar>(len: usize) -> usize {
    (len * T::BYTES).div_ceil(8)
}

/// Run `f` with two disjoint uninitialised scratch panels of `len_a` and
/// `len_b` elements. The panels come from this thread's persistent arena;
/// callers must fully write any region they later read (the pack routines
/// do — they zero-pad partial slivers explicitly).
pub(crate) fn with_pack_buffers<T: Scalar, R>(
    len_a: usize,
    len_b: usize,
    f: impl FnOnce(&mut [T], &mut [T]) -> R,
) -> R {
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let wa = words_for::<T>(len_a);
        let need = wa + words_for::<T>(len_b);
        if buf.len() < need {
            buf.resize(need, 0);
        }
        let (wa_slice, wb_slice) = buf.split_at_mut(wa);
        // SAFETY: u64 storage is 8-byte aligned, which satisfies f32/f64
        // alignment; lengths were sized above so both casts stay in bounds;
        // the two slices are disjoint.
        let pa =
            unsafe { std::slice::from_raw_parts_mut(wa_slice.as_mut_ptr().cast::<T>(), len_a) };
        let pb =
            unsafe { std::slice::from_raw_parts_mut(wb_slice.as_mut_ptr().cast::<T>(), len_b) };
        f(pa, pb)
    })
}

/// Run `f` with an uninitialised `len`-element slice from this thread's
/// persistent staging buffer. It is separate from the packing panels, so `f`
/// may call the packed kernels; callers must write any element they read.
pub(crate) fn with_staging<T: Scalar, R>(len: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    STAGING.with(|cell| {
        let mut buf = cell.borrow_mut();
        let need = words_for::<T>(len);
        if buf.len() < need {
            buf.resize(need, 0);
        }
        // SAFETY: as in `with_pack_buffers` — 8-byte aligned storage sized
        // for `len` elements above.
        let s = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), len) };
        f(s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_disjoint_and_sized() {
        with_pack_buffers::<f64, _>(100, 50, |a, b| {
            assert_eq!(a.len(), 100);
            assert_eq!(b.len(), 50);
            a.fill(1.0);
            b.fill(2.0);
            assert!(a.iter().all(|&v| v == 1.0));
            assert!(b.iter().all(|&v| v == 2.0));
        });
    }

    #[test]
    fn arena_reuses_and_grows() {
        with_pack_buffers::<f32, _>(8, 8, |a, b| {
            a.fill(1.0);
            b.fill(1.0);
        });
        // A larger request after a smaller one must still be in bounds.
        with_pack_buffers::<f64, _>(1000, 2000, |a, b| {
            a.fill(3.0);
            b.fill(4.0);
            assert_eq!(a.len(), 1000);
            assert_eq!(b.len(), 2000);
        });
    }
}
