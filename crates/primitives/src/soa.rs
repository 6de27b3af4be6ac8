//! Cache-conscious storage primitives: chunked arenas and epoch-stamped
//! slot tables.
//!
//! The contraction engine is **memory-bound**: profiling (`profile_insert`)
//! shows ~8 node-rounds of work per inserted edge at ~500 ns each, dominated
//! by random access into the node and cluster arenas. Two constant-factor
//! layout problems dominate once the asymptotics match the paper:
//!
//! 1. **Growth spikes.** A `Vec`-backed arena doubles by *copying*: at the
//!    1M-vertex scale the node arena is ~100 MB, so the unlucky batch that
//!    triggers the doubling pays a full copy — measured as ~7× batch-time
//!    spikes. [`ChunkedArena`] stores elements in fixed-size boxed chunks,
//!    so growth allocates one chunk and **never moves an existing element**
//!    (pointer stability is a documented guarantee, pinned by a property
//!    test). Batch latency becomes O(batch), not O(arena).
//!
//! 2. **Fat rows.** An array-of-structs arena drags every cold field of a
//!    record through the cache on each touch. The fix is a
//!    structure-of-arrays (SoA) split: fields touched by the hot loop (the
//!    current round's decision/adjacency/cluster, the parent pointer walked
//!    by root queries) live in their own parallel arrays, so one node-touch
//!    pulls one cache line of *hot* data; rarely-touched fields (deep round
//!    rows, spill buffers) sit in a side array and cost nothing until
//!    needed. `ChunkedArena` is the building block: an SoA arena is several
//!    parallel `ChunkedArena`s sharing one index space (see
//!    `bimst-rctree::contract` for the node arena and
//!    `bimst-rctree::cluster` for the cluster arena).
//!
//! # Chunk size choice
//!
//! [`CHUNK`] (4096 elements) balances three pressures. Bigger chunks mean a
//! shorter chunk table (better locality for the outer indirection) but a
//! larger worst-case single allocation (the spike this module exists to
//! kill) and more waste for small arenas. Smaller chunks make the chunk
//! table itself cache-hostile. At 4096 elements the table for a 1M-entry
//! arena is ~256 pointers (2 KB — resident in L1 throughout a propagation),
//! while the biggest chunk of the fattest row type (~64-byte round rows) is
//! 256 KB — microseconds to allocate, invisible next to a multi-millisecond
//! batch. Power-of-two so index splitting is a shift and a mask.
//!
//! # The epoch-stamp idiom
//!
//! Hot paths repeatedly need small *transient* sets and maps over a dense
//! id space (nodes, clusters, batch edges). A hash set pays hashing on
//! every probe; a plain bitmap pays an O(domain) clear per batch. An
//! **epoch-stamped** table pays neither: each slot holds the epoch at which
//! it was last written, membership means `stamp[i] == current_epoch`, and
//! *clearing is a counter increment* — O(1), touching no memory. The only
//! O(domain) event is the epoch counter wrapping (once per 2³² resets),
//! which re-zeroes the stamps so stale marks from the previous wrap cannot
//! alias. [`EpochSet`] is the membership-only form; [`EpochSlotMap`] packs
//! the stamp and a `u32` value into one `u64` slot — probe and write are a
//! *single* memory access (e.g. `node → compact index` for the CPT
//! expansion, `vertex → dense label` for the inner MSF). Both size
//! themselves to the id-space bound, growing O(lg) times total by
//! **in-place** power-of-two resizes: the already-faulted pages are kept,
//! because throwing the table away and re-faulting tens of megabytes
//! lazily is exactly the kind of multi-batch latency smear the chunked
//! arenas exist to prevent (the epoch bump that precedes the resize
//! invalidates every old mark, so keeping the bytes is sound).

/// Elements per chunk of a [`ChunkedArena`] (see the module docs for the
/// sizing rationale). Must be a power of two.
pub const CHUNK: usize = 4096;

const CHUNK_SHIFT: usize = CHUNK.trailing_zeros() as usize;
const CHUNK_MASK: usize = CHUNK - 1;

/// A growable arena stored as fixed-size boxed chunks.
///
/// Indexing costs one extra dependent load versus `Vec` (chunk pointer,
/// then element), but the chunk table is tiny and L1-resident, and in
/// exchange:
///
/// * **Growth never relocates.** `push` past a chunk boundary allocates one
///   new chunk; every existing element keeps its address. No doubling
///   copies, no 100 MB memcpy spikes at scale, and references observed
///   across pushes stay valid (the `prop_soa` property test pins this by
///   comparing raw element addresses before and after growth).
/// * **Growth cost is O(CHUNK)**, independent of arena size — batch latency
///   stays proportional to the batch.
///
/// Slots are default-initialized when a chunk is allocated; [`ChunkedArena::push`]
/// overwrites the next slot. `clear` resets the length but keeps every
/// chunk allocated, so arenas ratchet to their high-water mark and stay
/// allocation-free in steady state, matching the engine's scratch
/// discipline.
///
/// Chunks are `Box<[T; CHUNK]>` — statically sized, so (a) the chunk table
/// holds thin pointers (half the table bytes of fat `Box<[T]>` slices) and
/// (b) the compiler knows `index & CHUNK_MASK` is in bounds, eliding the
/// inner bounds check on the hot indexing path.
#[derive(Clone, Debug, Default)]
pub struct ChunkedArena<T> {
    chunks: Vec<Box<[T; CHUNK]>>,
    len: usize,
}

impl<T: Clone + Default> ChunkedArena<T> {
    /// An empty arena (no chunks allocated).
    pub fn new() -> Self {
        ChunkedArena {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated chunks (tests; capacity = `chunks() * CHUNK`).
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Appends an element, returning its index. Never moves existing
    /// elements; allocates at most one `CHUNK`-sized chunk.
    #[inline]
    pub fn push(&mut self, x: T) -> usize {
        let i = self.len;
        if i >> CHUNK_SHIFT == self.chunks.len() {
            let chunk: Box<[T; CHUNK]> = vec![T::default(); CHUNK]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("chunk built with CHUNK elements"));
            self.chunks.push(chunk);
        }
        self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK] = x;
        self.len = i + 1;
        i
    }

    /// Drops all elements (keeps every chunk allocated for reuse).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Iterates over the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| &self[i])
    }
}

impl<T: Clone + Default> std::ops::Index<usize> for ChunkedArena<T> {
    type Output = T;
    /// Hard bound check, like `Vec`: an index below the chunk capacity but
    /// past `len` would otherwise silently read a default/stale slot in
    /// release. Unlike a per-record length field, `self.len` lives in the
    /// arena header next to the chunk table pointer — one L1-resident
    /// compare, not an extra random cache line.
    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len);
        &self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }
}

impl<T: Clone + Default> std::ops::IndexMut<usize> for ChunkedArena<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len);
        &mut self.chunks[i >> CHUNK_SHIFT][i & CHUNK_MASK]
    }
}

/// An epoch-stamped membership set over a dense `usize` id space.
///
/// `reset` is O(1) (see the module docs, *The epoch-stamp idiom*). The
/// domain is set at reset time and growth allocates a fresh zeroed table
/// (no copy — resetting discards all marks anyway), so a growing id space
/// costs O(lg) allocations over the structure's lifetime.
#[derive(Debug, Default)]
pub struct EpochSet {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochSet {
    /// An empty set over an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set (O(1)) and ensures ids `0..domain` are addressable.
    ///
    /// Domain growth resizes **in place** (power-of-two sizing keeps the
    /// reallocation count logarithmic) so already-faulted pages stay warm;
    /// the epoch bump below invalidates every surviving stamp, so the old
    /// bytes are harmless.
    pub fn reset(&mut self, domain: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wraparound: one O(domain) re-zero per 2³² resets, so stale
            // stamps from the previous wrap can never alias fresh ones.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        if domain > self.stamp.len() {
            let cap = domain.next_power_of_two();
            if self.stamp.is_empty() {
                // First sizing: `vec![0; _]` goes through `alloc_zeroed`
                // (lazily-faulted zero pages), so a sparse workload only
                // ever pays for the pages it touches. An explicit `resize`
                // here would memset — and fault — the whole table up
                // front, a multi-millisecond spike on a 1M-id domain.
                self.stamp = vec![0; cap];
            } else {
                self.stamp.resize(cap, 0);
            }
        }
    }

    /// Current domain bound (exclusive).
    pub fn domain(&self) -> usize {
        self.stamp.len()
    }

    /// Forces the epoch counter (wraparound boundary tests only).
    #[doc(hidden)]
    pub fn force_epoch_for_tests(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Inserts `i`; returns whether it was newly inserted this epoch.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.stamp.len(), "id {i} outside epoch-set domain");
        let fresh = self.stamp[i] != self.epoch;
        self.stamp[i] = self.epoch;
        fresh
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.stamp.get(i).is_some_and(|&s| s == self.epoch)
    }
}

/// An epoch-stamped `id → u32` map over a dense `usize` id space.
///
/// The map form of [`EpochSet`]: `reset` is O(1) and lookups are
/// hash-free. Stamp and value are packed into one `u64` slot
/// (`stamp << 32 | value`), so a probe or a write is a **single** memory
/// access — on the cold, randomly-indexed tables these maps exist for,
/// a split stamp/value layout would double the cache misses. This is the
/// "dense-slot indirection" used on the CPT query path
/// (`node → compact index`) and the inner-MSF relabeling
/// (`vertex → dense label`).
#[derive(Debug, Default)]
pub struct EpochSlotMap {
    slot: Vec<u64>,
    epoch: u32,
}

impl EpochSlotMap {
    /// An empty map over an empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the map (O(1)) and ensures ids `0..domain` are addressable.
    /// Domain growth resizes in place, like [`EpochSet::reset`].
    pub fn reset(&mut self, domain: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slot.fill(0);
            self.epoch = 1;
        }
        if domain > self.slot.len() {
            let cap = domain.next_power_of_two();
            if self.slot.is_empty() {
                // Lazily-faulted first allocation — see [`EpochSet::reset`].
                self.slot = vec![0; cap];
            } else {
                self.slot.resize(cap, 0);
            }
        }
    }

    /// Forces the epoch counter (wraparound boundary tests only).
    #[doc(hidden)]
    pub fn force_epoch_for_tests(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Maps `i` to `v` (inserting or overwriting).
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        debug_assert!(i < self.slot.len(), "id {i} outside slot-map domain");
        self.slot[i] = ((self.epoch as u64) << 32) | v as u64;
    }

    /// The value mapped to `i` this epoch, if any.
    #[inline]
    pub fn get(&self, i: usize) -> Option<u32> {
        debug_assert!(i < self.slot.len(), "id {i} outside slot-map domain");
        let s = self.slot[i];
        ((s >> 32) as u32 == self.epoch).then_some(s as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_index_roundtrip_across_chunks() {
        let mut a: ChunkedArena<u64> = ChunkedArena::new();
        let n = 3 * CHUNK + 17;
        for i in 0..n {
            assert_eq!(a.push(i as u64 * 3), i);
        }
        assert_eq!(a.len(), n);
        assert_eq!(a.chunks(), 4);
        for i in (0..n).step_by(997) {
            assert_eq!(a[i], i as u64 * 3);
        }
        a[CHUNK] = 999;
        assert_eq!(a[CHUNK], 999);
    }

    #[test]
    fn clear_keeps_chunks() {
        let mut a: ChunkedArena<u32> = ChunkedArena::new();
        for i in 0..2 * CHUNK {
            a.push(i as u32);
        }
        let chunks = a.chunks();
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.chunks(), chunks, "clear must not free chunks");
        for i in 0..CHUNK {
            a.push(i as u32);
        }
        assert_eq!(a.chunks(), chunks);
    }

    #[test]
    fn iter_matches_index_order() {
        let mut a: ChunkedArena<u16> = ChunkedArena::new();
        for i in 0..CHUNK + 5 {
            a.push(i as u16);
        }
        let v: Vec<u16> = a.iter().copied().collect();
        assert_eq!(v.len(), CHUNK + 5);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u16));
    }

    #[test]
    fn epoch_set_reset_forgets() {
        let mut s = EpochSet::new();
        s.reset(100);
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        s.reset(100);
        assert!(!s.contains(7));
        assert!(s.insert(7));
    }

    #[test]
    fn epoch_set_domain_growth() {
        let mut s = EpochSet::new();
        s.reset(10);
        s.insert(3);
        s.reset(1000); // growth discards marks and re-addresses
        assert!(s.domain() >= 1000);
        assert!(!s.contains(3));
        s.insert(999);
        assert!(s.contains(999));
    }

    #[test]
    fn slot_map_set_get_reset() {
        let mut m = EpochSlotMap::new();
        m.reset(50);
        assert_eq!(m.get(4), None);
        m.set(4, 42);
        assert_eq!(m.get(4), Some(42));
        m.set(4, 43);
        assert_eq!(m.get(4), Some(43));
        m.reset(50);
        assert_eq!(m.get(4), None);
    }
}
