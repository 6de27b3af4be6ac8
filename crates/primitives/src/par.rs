//! Work-efficient parallel building blocks on top of rayon. Below
//! [`crate::GRAIN`] elements they run sequentially, so they are also fast
//! on tiny inputs: Algorithm 2 runs on batches of size `ℓ`, which can be as
//! small as 1.

use rayon::prelude::*;

use crate::GRAIN;

/// Parallel map into a **reused** vector: clears `out` and fills it with
/// `f(x)` for every `x` of `xs`, in input order, in parallel above the
/// grain. Once `out` has grown to its high-water capacity, calls perform no
/// heap allocation — the engine's hot loops depend on this.
///
/// The parallel path writes `f(x)` directly into the vector's spare
/// capacity (no sequential default-fill pass first — that would double the
/// memory writes of exactly the loop this function parallelizes).
pub fn map_into<T, U, F>(xs: &[T], out: &mut Vec<U>, f: F)
where
    T: Sync,
    U: Send + Copy,
    F: Fn(&T) -> U + Sync,
{
    out.clear();
    let n = xs.len();
    if n <= GRAIN {
        out.extend(xs.iter().map(&f));
        return;
    }
    out.reserve(n);
    let spare = &mut out.spare_capacity_mut()[..n];
    spare
        .par_chunks_mut(GRAIN)
        .zip(xs.par_chunks(GRAIN))
        .for_each(|(ochunk, xchunk)| {
            for (slot, x) in ochunk.iter_mut().zip(xchunk) {
                slot.write(f(x));
            }
        });
    // SAFETY: `spare` covers exactly indices 0..n of the spare capacity,
    // and the zip above pairs chunk `i` of `spare` with the equal-length
    // chunk `i` of `xs` (both are `GRAIN`-chunkings of length-`n` slices),
    // so every one of the first `n` slots was initialized.
    unsafe { out.set_len(n) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_into_matches_map_and_reuses_capacity() {
        let xs: Vec<u64> = (0..10_000).collect();
        let mut out: Vec<u64> = Vec::new();
        map_into(&xs, &mut out, |&x| x * 3);
        assert_eq!(out, xs.iter().map(|&x| x * 3).collect::<Vec<_>>());
        let cap = out.capacity();
        map_into(&xs, &mut out, |&x| x + 1);
        assert_eq!(out[17], 18);
        assert_eq!(out.capacity(), cap, "steady-state call must not realloc");
        // Small inputs shrink the length, never the buffer.
        map_into(&xs[..5], &mut out, |&x| x);
        assert_eq!(out.len(), 5);
        assert_eq!(out.capacity(), cap);
    }
}
