//! A splay tree map — §3.1's counterexample: **even concurrent reads are
//! unsafe**, because lookups rebalance the tree ("it would not be safe for
//! threads to perform concurrent reads of a splay tree because splay tree
//! read operations rebalance the tree").
//!
//! Accordingly [`SplayTreeMap::lookup`] takes *write* access to the
//! underlying cell, and the placement validator must serialize every pair of
//! operations on edges represented by this container — including pairs of
//! lookups. The debug-mode race detector enforces this: two unsynchronized
//! concurrent lookups panic.

use std::cmp::Ordering as CmpOrdering;
use std::ops::ControlFlow;

use crate::api::{Container, ContainerKind, Key, Val};
use crate::extsync::ExtSyncCell;
use crate::taxonomy::ContainerProps;

#[derive(Debug)]
struct SplayNode<K, V> {
    key: K,
    value: V,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Box<SplayNode<K, V>>>;

#[derive(Debug)]
struct RawSplay<K, V> {
    root: Link<K, V>,
    len: usize,
}

fn rotate_right<K, V>(mut h: Box<SplayNode<K, V>>) -> Box<SplayNode<K, V>> {
    let mut x = h.left.take().expect("rotate_right requires left child");
    h.left = x.right.take();
    x.right = Some(h);
    x
}

fn rotate_left<K, V>(mut h: Box<SplayNode<K, V>>) -> Box<SplayNode<K, V>> {
    let mut x = h.right.take().expect("rotate_left requires right child");
    h.right = x.left.take();
    x.left = Some(h);
    x
}

/// Recursive splay: after this, if `key` is present it is at the root;
/// otherwise a node adjacent to `key` on the search path is at the root.
fn splay_link<K: Key, V: Val>(mut h: Box<SplayNode<K, V>>, key: &K) -> Box<SplayNode<K, V>> {
    match key.cmp(&h.key) {
        CmpOrdering::Equal => h,
        CmpOrdering::Less => {
            let Some(mut l) = h.left.take() else {
                return h;
            };
            match key.cmp(&l.key) {
                CmpOrdering::Less => {
                    // zig-zig
                    if let Some(ll) = l.left.take() {
                        l.left = Some(splay_link(ll, key));
                    }
                    h.left = Some(l);
                    let mut h = rotate_right(h);
                    if h.left.is_some() {
                        h = rotate_right(h);
                    }
                    h
                }
                CmpOrdering::Greater => {
                    // zig-zag
                    if let Some(lr) = l.right.take() {
                        l.right = Some(splay_link(lr, key));
                        if l.right.is_some() {
                            l = rotate_left(l);
                        }
                    }
                    h.left = Some(l);
                    rotate_right(h)
                }
                CmpOrdering::Equal => {
                    h.left = Some(l);
                    rotate_right(h)
                }
            }
        }
        CmpOrdering::Greater => {
            let Some(mut r) = h.right.take() else {
                return h;
            };
            match key.cmp(&r.key) {
                CmpOrdering::Greater => {
                    // zag-zag
                    if let Some(rr) = r.right.take() {
                        r.right = Some(splay_link(rr, key));
                    }
                    h.right = Some(r);
                    let mut h = rotate_left(h);
                    if h.right.is_some() {
                        h = rotate_left(h);
                    }
                    h
                }
                CmpOrdering::Less => {
                    // zag-zig
                    if let Some(rl) = r.left.take() {
                        r.left = Some(splay_link(rl, key));
                        if r.left.is_some() {
                            r = rotate_right(r);
                        }
                    }
                    h.right = Some(r);
                    rotate_left(h)
                }
                CmpOrdering::Equal => {
                    h.right = Some(r);
                    rotate_left(h)
                }
            }
        }
    }
}

impl<K: Key, V: Val> RawSplay<K, V> {
    /// Splays `key` to the root (or an adjacent key, if absent).
    fn splay(&mut self, key: &K) {
        if let Some(root) = self.root.take() {
            self.root = Some(splay_link(root, key));
        }
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        self.splay(key);
        match &self.root {
            Some(n) if &n.key == key => Some(n.value.clone()),
            _ => None,
        }
    }

    fn insert(&mut self, key: &K, value: V) -> Option<V> {
        self.splay(key);
        match &mut self.root {
            Some(n) if &n.key == key => Some(std::mem::replace(&mut n.value, value)),
            _ => {
                let mut new = Box::new(SplayNode {
                    key: key.clone(),
                    value,
                    left: None,
                    right: None,
                });
                if let Some(mut old_root) = self.root.take() {
                    if *key < old_root.key {
                        new.left = old_root.left.take();
                        new.right = Some(old_root);
                    } else {
                        new.right = old_root.right.take();
                        new.left = Some(old_root);
                    }
                }
                self.root = Some(new);
                self.len += 1;
                None
            }
        }
    }

    fn remove(&mut self, key: &K) -> Option<V> {
        self.splay(key);
        match &self.root {
            Some(n) if &n.key == key => {
                let node = self.root.take().expect("checked above");
                let SplayNode {
                    value, left, right, ..
                } = *node;
                self.root = match (left, right) {
                    (None, r) => r,
                    (l, None) => l,
                    (Some(l), Some(r)) => {
                        // Splay the max of the left subtree to its root,
                        // then attach the right subtree.
                        let mut sub = RawSplay {
                            root: Some(l),
                            len: 0,
                        };
                        sub.splay(key); // key > all left keys: splays max up
                        let mut new_root = sub.root.expect("nonempty");
                        debug_assert!(new_root.right.is_none());
                        new_root.right = Some(r);
                        Some(new_root)
                    }
                };
                self.len -= 1;
                Some(value)
            }
            _ => None,
        }
    }

    fn scan_inorder(
        link: &Link<K, V>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(n) = link {
            Self::scan_inorder(&n.left, f)?;
            f(&n.key, &n.value)?;
            Self::scan_inorder(&n.right, f)?;
        }
        ControlFlow::Continue(())
    }
}

/// A non-concurrent splay tree map whose **reads mutate the tree** (§3.1).
///
/// # Examples
///
/// ```
/// use relc_containers::{SplayTreeMap, Container};
///
/// let m = SplayTreeMap::new();
/// m.write(&2, Some("two"));
/// m.write(&1, Some("one"));
/// assert_eq!(m.lookup(&2), Some("two")); // splays 2 to the root
/// ```
#[derive(Debug)]
pub struct SplayTreeMap<K, V> {
    inner: ExtSyncCell<RawSplay<K, V>>,
}

impl<K: Key, V: Val> SplayTreeMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        SplayTreeMap {
            inner: ExtSyncCell::new(RawSplay { root: None, len: 0 }),
        }
    }
}

impl<K: Key, V: Val> Default for SplayTreeMap<K, V> {
    fn default() -> Self {
        SplayTreeMap::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for SplayTreeMap<K, V> {
    /// Point lookup. **Takes exclusive access**: splaying rebalances the
    /// tree, which is why Figure 1 would list even L/L as unsafe for splay
    /// trees.
    fn lookup(&self, key: &K) -> Option<V> {
        self.inner.write(|t| t.lookup(key))
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        // In-order traversal does not splay, but the taxonomy still declares
        // S/* unsafe because lookups may run "concurrently" only under a
        // serializing placement anyway; use read access for the traversal.
        self.inner.read(|t| {
            let _ = RawSplay::scan_inorder(&t.root, f);
        });
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        self.inner.write(|t| match value {
            Some(v) => t.insert(key, v),
            None => t.remove(key),
        })
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        // One writer span for the remove + insert pair (the remove already
        // splays old_key's neighborhood to the root, so the insert that
        // follows is cheap when the keys are close).
        self.inner.write(|t| {
            let old = t.remove(old_key)?;
            t.insert(new_key, value);
            Some(old)
        })
    }

    fn len(&self) -> usize {
        self.inner.read(|t| t.len)
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::SplayTreeMap.props()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_map_semantics() {
        let m: SplayTreeMap<i64, i64> = SplayTreeMap::new();
        assert_eq!(m.write(&1, Some(10)), None);
        assert_eq!(m.write(&2, Some(20)), None);
        assert_eq!(m.write(&1, Some(11)), Some(10));
        assert_eq!(m.lookup(&1), Some(11));
        assert_eq!(m.lookup(&3), None);
        assert_eq!(m.write(&1, None), Some(11));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn lookup_splays_to_root() {
        let m: SplayTreeMap<i64, i64> = SplayTreeMap::new();
        for i in 0..100 {
            m.write(&i, Some(i));
        }
        m.lookup(&42);
        m.inner.read(|t| {
            assert_eq!(t.root.as_ref().map(|n| n.key), Some(42));
        });
    }

    #[test]
    fn sorted_scan_after_adversarial_inserts() {
        let m: SplayTreeMap<i64, i64> = SplayTreeMap::new();
        let keys: Vec<i64> = (0..300).map(|i| (i * 31) % 101).collect();
        for &k in &keys {
            m.write(&k, Some(k));
        }
        let mut seen = Vec::new();
        m.scan(&mut |k, _| {
            seen.push(*k);
            ControlFlow::Continue(())
        });
        let mut expected = keys;
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(seen, expected);
    }

    #[test]
    fn remove_all_in_random_order() {
        let m: SplayTreeMap<i64, i64> = SplayTreeMap::new();
        for i in 0..200 {
            m.write(&i, Some(i));
        }
        // Mixed lookups to shuffle the tree shape while removing.
        for i in (0..200).rev() {
            m.lookup(&((i * 13) % 200));
            assert_eq!(m.write(&i, None), Some(i), "removing {i}");
        }
        assert!(m.is_empty());
        assert_eq!(m.lookup(&0), None);
    }

    #[test]
    fn props_reads_unsafe() {
        let m: SplayTreeMap<i64, i64> = SplayTreeMap::new();
        assert!(!m.props().reads_are_safe());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn concurrent_lookups_trip_race_detector() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Arc, Barrier};
        // Tripping the detector needs the two threads to actually overlap
        // mid-lookup; on a loaded single-CPU box one run of the experiment
        // can execute the threads back-to-back without any interleaving,
        // so retry the whole experiment a few times before declaring the
        // detector broken.
        for _attempt in 0..20 {
            let m: Arc<SplayTreeMap<i64, i64>> = Arc::new(SplayTreeMap::new());
            for i in 0..1000 {
                m.write(&i, Some(i));
            }
            let barrier = Arc::new(Barrier::new(2));
            let caught = Arc::new(AtomicBool::new(false));
            let mut handles = Vec::new();
            for t in 0..2 {
                let m = m.clone();
                let b = barrier.clone();
                let c = caught.clone();
                handles.push(std::thread::spawn(move || {
                    b.wait();
                    for i in 0..20_000i64 {
                        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            m.lookup(&((i * (t + 1)) % 1000));
                        }));
                        if r.is_err() {
                            c.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }));
            }
            for h in handles {
                let _ = h.join();
            }
            if caught.load(Ordering::SeqCst) {
                return;
            }
        }
        panic!("unsynchronized splay lookups must be detected as racy");
    }
}
