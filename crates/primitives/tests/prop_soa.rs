//! Properties the chunked-SoA layout work relies on:
//!
//! 1. **Pointer stability.** `ChunkedArena` growth must never relocate an
//!    existing element — this is what kills the arena-doubling batch-time
//!    spikes and what lets the engine hold borrows across pushes. Pinned by
//!    comparing raw element addresses before and after pushes that cross
//!    chunk boundaries (a `Vec` fails this the moment it doubles).
//! 2. **O(1) epoch reset.** Resetting an epoch-stamped table between
//!    batches must not touch per-slot memory: same-domain resets perform no
//!    allocation (domain pointer unchanged) and still forget every mark —
//!    including across the u32 epoch wraparound, where one re-zero is the
//!    documented exception.

use bimst_primitives::soa::{ChunkedArena, EpochSet, EpochSlotMap, CHUNK};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Elements observed at any point keep their exact address through
    /// arbitrary later growth, including pushes that allocate new chunks.
    #[test]
    fn chunked_arena_growth_never_relocates(
        prefix in 1usize..3 * CHUNK,
        grow in 1usize..3 * CHUNK,
        probe_seed in 0u64..1 << 30,
    ) {
        let mut a: ChunkedArena<u64> = ChunkedArena::new();
        for i in 0..prefix {
            a.push(i as u64);
        }
        // Record addresses of a pseudo-random sample plus both boundary
        // elements of every allocated chunk.
        let mut probes: Vec<usize> = (0..16)
            .map(|k| (probe_seed as usize).wrapping_mul(k + 1).wrapping_add(k) % prefix)
            .collect();
        probes.extend((0..prefix).filter(|i| i % CHUNK == 0 || i % CHUNK == CHUNK - 1));
        let before: Vec<(usize, *const u64)> =
            probes.iter().map(|&i| (i, &a[i] as *const u64)).collect();
        // Grow past at least one chunk boundary.
        for i in 0..grow {
            a.push((prefix + i) as u64);
        }
        for &(i, p) in &before {
            prop_assert!(
                std::ptr::eq(&a[i], p),
                "element {i} moved after growth to len {}",
                a.len()
            );
            prop_assert_eq!(a[i], i as u64, "element {} corrupted", i);
        }
    }

    /// Same-domain resets are allocation-free (the stamp table is reused in
    /// place) and forget every mark.
    #[test]
    fn epoch_set_reset_is_in_place_and_forgets(
        domain in 1usize..10_000,
        marks in proptest::collection::vec(0usize..10_000, 1..64),
        resets in 1usize..2000,
    ) {
        let mut s = EpochSet::new();
        s.reset(domain);
        let table = s.domain(); // capacity after first sizing
        for _ in 0..resets {
            for &m in &marks {
                s.insert(m % domain);
            }
            s.reset(domain);
            // O(1) reset: no reallocation (domain bound unchanged) …
            prop_assert_eq!(s.domain(), table);
            // … and no mark survives.
            for &m in &marks {
                prop_assert!(!s.contains(m % domain), "mark {} survived reset", m % domain);
            }
        }
    }

    /// The slot-map form: values written before a reset are unreadable
    /// after it, and re-writes in the new epoch behave like a fresh map.
    #[test]
    fn epoch_slot_map_resets_between_batches(
        domain in 1usize..5_000,
        writes in proptest::collection::vec((0usize..5_000, 0u32..1000), 1..64),
    ) {
        let mut m = EpochSlotMap::new();
        m.reset(domain);
        for &(i, v) in &writes {
            m.set(i % domain, v);
            prop_assert_eq!(m.get(i % domain), Some(v));
        }
        m.reset(domain);
        for &(i, _) in &writes {
            prop_assert_eq!(m.get(i % domain), None);
        }
        // The new epoch is a fully functional fresh map.
        for &(i, v) in &writes {
            m.set(i % domain, v.wrapping_add(1));
        }
        for &(i, v) in &writes {
            // Later duplicate writes win, so just check presence shape.
            let got = m.get(i % domain);
            prop_assert!(got.is_some());
            let _ = v;
        }
    }
}

/// Epoch wraparound: force the u32 epoch counter across 0 and check that
/// marks from the pre-wrap era cannot alias post-wrap queries — this
/// drives the `epoch == 0` re-zero branch itself, which 2³² real resets
/// would take minutes to reach. (Not a proptest: the interesting case is
/// the single deterministic boundary.)
#[test]
fn epoch_set_survives_epoch_wraparound() {
    let mut s = EpochSet::new();
    s.reset(8);
    s.insert(3);
    s.force_epoch_for_tests(u32::MAX); // stamp[3] is now from an old epoch
    s.insert(5); // stamp[5] == u32::MAX, the last pre-wrap epoch
    assert!(s.contains(5) && !s.contains(3));
    s.reset(8); // wraps: must re-zero, landing on epoch 1
    assert!(!s.contains(5), "pre-wrap mark aliased across the boundary");
    assert!(!s.contains(3));
    // Without the re-zero, a stale stamp equal to the post-wrap epoch (1)
    // would read as current; prove marks still behave after the wrap.
    assert!(s.insert(3));
    assert!(!s.insert(3));
    assert!(s.contains(3) && !s.contains(5));
}

/// The slot-map form of the wraparound boundary.
#[test]
fn epoch_slot_map_survives_epoch_wraparound() {
    let mut m = EpochSlotMap::new();
    m.reset(8);
    m.set(2, 77);
    m.force_epoch_for_tests(u32::MAX);
    m.set(6, 88);
    assert_eq!(m.get(6), Some(88));
    m.reset(8); // wraps
    assert_eq!(m.get(2), None);
    assert_eq!(m.get(6), None, "pre-wrap value aliased across the boundary");
    m.set(2, 99);
    assert_eq!(m.get(2), Some(99));
}

/// A `Vec`-backed arena would fail the stability property at its first
/// doubling; make the contrast explicit so the guarantee is not vacuous.
#[test]
fn chunk_boundary_push_allocates_exactly_one_chunk() {
    let mut a: ChunkedArena<u8> = ChunkedArena::new();
    for i in 0..CHUNK {
        a.push(i as u8);
    }
    assert_eq!(a.chunks(), 1);
    let p0 = &a[0] as *const u8;
    a.push(7); // crosses the boundary: one new chunk, nothing moves
    assert_eq!(a.chunks(), 2);
    assert!(std::ptr::eq(&a[0] as *const u8, p0));
}
