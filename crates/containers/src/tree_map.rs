//! An AVL tree map with **no internal synchronization** — the Rust analog of
//! the JDK `TreeMap` row of Figure 1. Scans are sorted; the planner's
//! lock-sort elision analysis (§5.2) relies on that.

use std::cmp::Ordering as CmpOrdering;
use std::ops::{Bound, ControlFlow};

use crate::api::{Container, ContainerKind, Key, Val};
use crate::extsync::ExtSyncCell;
use crate::taxonomy::ContainerProps;

#[derive(Debug)]
struct AvlNode<K, V> {
    key: K,
    value: V,
    height: i8,
    left: Link<K, V>,
    right: Link<K, V>,
}

type Link<K, V> = Option<Box<AvlNode<K, V>>>;

fn height<K, V>(link: &Link<K, V>) -> i8 {
    link.as_ref().map_or(0, |n| n.height)
}

fn update_height<K, V>(node: &mut AvlNode<K, V>) {
    node.height = 1 + height(&node.left).max(height(&node.right));
}

fn balance_factor<K, V>(node: &AvlNode<K, V>) -> i8 {
    height(&node.left) - height(&node.right)
}

fn rotate_right<K, V>(mut node: Box<AvlNode<K, V>>) -> Box<AvlNode<K, V>> {
    let mut new_root = node.left.take().expect("rotate_right requires left child");
    node.left = new_root.right.take();
    update_height(&mut node);
    new_root.right = Some(node);
    update_height(&mut new_root);
    new_root
}

fn rotate_left<K, V>(mut node: Box<AvlNode<K, V>>) -> Box<AvlNode<K, V>> {
    let mut new_root = node.right.take().expect("rotate_left requires right child");
    node.right = new_root.left.take();
    update_height(&mut node);
    new_root.left = Some(node);
    update_height(&mut new_root);
    new_root
}

fn rebalance<K, V>(mut node: Box<AvlNode<K, V>>) -> Box<AvlNode<K, V>> {
    update_height(&mut node);
    let bf = balance_factor(&node);
    if bf > 1 {
        if balance_factor(node.left.as_ref().expect("bf>1 implies left")) < 0 {
            node.left = Some(rotate_left(node.left.take().expect("checked")));
        }
        rotate_right(node)
    } else if bf < -1 {
        if balance_factor(node.right.as_ref().expect("bf<-1 implies right")) > 0 {
            node.right = Some(rotate_right(node.right.take().expect("checked")));
        }
        rotate_left(node)
    } else {
        node
    }
}

#[derive(Debug)]
struct RawTree<K, V> {
    root: Link<K, V>,
    len: usize,
}

impl<K: Key, V: Val> RawTree<K, V> {
    fn lookup<'a>(&'a self, key: &K) -> Option<&'a V> {
        let mut cur = self.root.as_deref();
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                CmpOrdering::Less => cur = n.left.as_deref(),
                CmpOrdering::Greater => cur = n.right.as_deref(),
                CmpOrdering::Equal => return Some(&n.value),
            }
        }
        None
    }

    fn insert(link: Link<K, V>, key: &K, value: V) -> (Box<AvlNode<K, V>>, Option<V>) {
        match link {
            None => (
                Box::new(AvlNode {
                    key: key.clone(),
                    value,
                    height: 1,
                    left: None,
                    right: None,
                }),
                None,
            ),
            Some(mut node) => {
                let old = match key.cmp(&node.key) {
                    CmpOrdering::Less => {
                        let (child, old) = Self::insert(node.left.take(), key, value);
                        node.left = Some(child);
                        old
                    }
                    CmpOrdering::Greater => {
                        let (child, old) = Self::insert(node.right.take(), key, value);
                        node.right = Some(child);
                        old
                    }
                    CmpOrdering::Equal => Some(std::mem::replace(&mut node.value, value)),
                };
                (rebalance(node), old)
            }
        }
    }

    fn remove(link: Link<K, V>, key: &K) -> (Link<K, V>, Option<V>) {
        match link {
            None => (None, None),
            Some(mut node) => match key.cmp(&node.key) {
                CmpOrdering::Less => {
                    let (child, old) = Self::remove(node.left.take(), key);
                    node.left = child;
                    (Some(rebalance(node)), old)
                }
                CmpOrdering::Greater => {
                    let (child, old) = Self::remove(node.right.take(), key);
                    node.right = child;
                    (Some(rebalance(node)), old)
                }
                CmpOrdering::Equal => {
                    let old = node.value.clone();
                    match (node.left.take(), node.right.take()) {
                        (None, None) => (None, Some(old)),
                        (Some(l), None) => (Some(l), Some(old)),
                        (None, Some(r)) => (Some(r), Some(old)),
                        (Some(l), Some(r)) => {
                            // Replace with in-order successor (min of right).
                            let (r, succ_k, succ_v) = Self::pop_min(r);
                            node.key = succ_k;
                            node.value = succ_v;
                            node.left = Some(l);
                            node.right = r;
                            (Some(rebalance(node)), Some(old))
                        }
                    }
                }
            },
        }
    }

    fn pop_min(mut node: Box<AvlNode<K, V>>) -> (Link<K, V>, K, V) {
        match node.left.take() {
            None => (node.right.take(), node.key, node.value),
            Some(left) => {
                let (new_left, k, v) = Self::pop_min(left);
                node.left = new_left;
                (Some(rebalance(node)), k, v)
            }
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

    /// Bounded in-order traversal: subtrees entirely below `lo` or
    /// entirely above `hi` are pruned, so the visit cost is
    /// O(log n + interval size) rather than O(n).
    fn scan_range_inorder(
        link: &Link<K, V>,
        lo: Bound<&K>,
        hi: Bound<&K>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Some(n) = link else {
            return ControlFlow::Continue(());
        };
        let above_lo = match lo {
            Bound::Included(b) => &n.key >= b,
            Bound::Excluded(b) => &n.key > b,
            Bound::Unbounded => true,
        };
        let below_hi = match hi {
            Bound::Included(b) => &n.key <= b,
            Bound::Excluded(b) => &n.key < b,
            Bound::Unbounded => true,
        };
        if above_lo {
            Self::scan_range_inorder(&n.left, lo, hi, f)?;
            if below_hi {
                f(&n.key, &n.value)?;
            }
        }
        if below_hi {
            Self::scan_range_inorder(&n.right, lo, hi, f)?;
        }
        ControlFlow::Continue(())
    }

    #[cfg(test)]
    fn check_invariants(link: &Link<K, V>) -> (i8, Option<(&K, &K)>) {
        match link {
            None => (0, None),
            Some(n) => {
                let (lh, lrange) = Self::check_invariants(&n.left);
                let (rh, rrange) = Self::check_invariants(&n.right);
                assert!((lh - rh).abs() <= 1, "AVL balance violated");
                assert_eq!(n.height, 1 + lh.max(rh), "height cache wrong");
                let mut min = &n.key;
                let mut max = &n.key;
                if let Some((lmin, lmax)) = lrange {
                    assert!(lmax < &n.key, "BST order violated (left)");
                    min = lmin;
                }
                if let Some((rmin, rmax)) = rrange {
                    assert!(rmin > &n.key, "BST order violated (right)");
                    max = rmax;
                }
                (n.height, Some((min, max)))
            }
        }
    }
}

/// A non-concurrent AVL tree map with sorted iteration (Figure 1's `TreeMap`
/// row).
///
/// # Examples
///
/// ```
/// use relc_containers::{AvlTreeMap, Container};
/// use std::ops::ControlFlow;
///
/// let m = AvlTreeMap::new();
/// for k in [3, 1, 2] {
///     m.write(&k, Some(k * 10));
/// }
/// let mut keys = Vec::new();
/// m.scan(&mut |k: &i32, _v: &i32| { keys.push(*k); ControlFlow::Continue(()) });
/// assert_eq!(keys, vec![1, 2, 3]); // sorted scan
/// ```
#[derive(Debug)]
pub struct AvlTreeMap<K, V> {
    inner: ExtSyncCell<RawTree<K, V>>,
}

impl<K: Key, V: Val> AvlTreeMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        AvlTreeMap {
            inner: ExtSyncCell::new(RawTree { root: None, len: 0 }),
        }
    }

    /// Validates AVL and BST invariants (test support).
    #[cfg(test)]
    fn assert_invariants(&self) {
        self.inner.read(|t| {
            RawTree::check_invariants(&t.root);
        });
    }
}

impl<K: Key, V: Val> Default for AvlTreeMap<K, V> {
    fn default() -> Self {
        AvlTreeMap::new()
    }
}

impl<K: Key, V: Val> Container<K, V> for AvlTreeMap<K, V> {
    fn lookup(&self, key: &K) -> Option<V> {
        self.inner.read(|t| t.lookup(key).cloned())
    }

    fn scan(&self, f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>) {
        self.inner.read(|t| {
            let _ = RawTree::scan_inorder(&t.root, f);
        });
    }

    fn scan_range(
        &self,
        lo: Bound<&K>,
        hi: Bound<&K>,
        f: &mut dyn FnMut(&K, &V) -> ControlFlow<()>,
    ) {
        self.inner.read(|t| {
            let _ = RawTree::scan_range_inorder(&t.root, lo, hi, f);
        });
    }

    fn write(&self, key: &K, value: Option<V>) -> Option<V> {
        self.inner.write(|t| match value {
            Some(v) => {
                let (root, old) = RawTree::insert(t.root.take(), key, v);
                t.root = Some(root);
                if old.is_none() {
                    t.len += 1;
                }
                old
            }
            None => {
                let (root, old) = RawTree::remove(t.root.take(), key);
                t.root = root;
                if old.is_some() {
                    t.len -= 1;
                }
                old
            }
        })
    }

    fn update_entry(&self, old_key: &K, new_key: &K, value: V) -> Option<V> {
        // Remove + insert fused into one externally synchronized writer
        // span; len is unchanged by a successful move.
        self.inner.write(|t| {
            let (root, old) = RawTree::remove(t.root.take(), old_key);
            t.root = root;
            let old = old?;
            let (root, prev) = RawTree::insert(t.root.take(), new_key, value);
            t.root = Some(root);
            if prev.is_some() {
                t.len -= 1;
            }
            Some(old)
        })
    }

    fn len(&self) -> usize {
        self.inner.read(|t| t.len)
    }

    fn props(&self) -> ContainerProps {
        ContainerKind::TreeMap.props()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_scan_after_random_inserts() {
        let m: AvlTreeMap<i64, i64> = AvlTreeMap::new();
        let keys: Vec<i64> = (0..200).map(|i| (i * 7919) % 499).collect();
        for &k in &keys {
            m.write(&k, Some(k));
        }
        m.assert_invariants();
        let mut seen = Vec::new();
        m.scan(&mut |k, _| {
            seen.push(*k);
            ControlFlow::Continue(())
        });
        let mut expected: Vec<i64> = keys.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(seen, expected);
        assert_eq!(m.len(), expected.len());
    }

    #[test]
    fn insert_update_remove() {
        let m: AvlTreeMap<i64, String> = AvlTreeMap::new();
        assert_eq!(m.write(&5, Some("a".into())), None);
        assert_eq!(m.write(&5, Some("b".into())), Some("a".into()));
        assert_eq!(m.lookup(&5), Some("b".into()));
        assert_eq!(m.write(&5, None), Some("b".into()));
        assert_eq!(m.write(&5, None), None);
        assert!(m.is_empty());
    }

    #[test]
    fn remove_inner_nodes_keeps_balance() {
        let m: AvlTreeMap<i64, i64> = AvlTreeMap::new();
        for i in 0..500 {
            m.write(&i, Some(i));
        }
        m.assert_invariants();
        // Remove a middle swathe, forcing successor-replacement paths.
        for i in 100..400 {
            assert_eq!(m.write(&i, None), Some(i));
            if i % 50 == 0 {
                m.assert_invariants();
            }
        }
        m.assert_invariants();
        assert_eq!(m.len(), 200);
        for i in 0..100 {
            assert_eq!(m.lookup(&i), Some(i));
        }
        for i in 100..400 {
            assert_eq!(m.lookup(&i), None);
        }
    }

    #[test]
    fn ascending_and_descending_inserts_stay_balanced() {
        for keys in [
            (0..1000).collect::<Vec<i64>>(),
            (0..1000).rev().collect::<Vec<i64>>(),
        ] {
            let m: AvlTreeMap<i64, i64> = AvlTreeMap::new();
            for &k in &keys {
                m.write(&k, Some(k));
            }
            m.assert_invariants();
            // AVL height bound: 1.44 * log2(n+2); for n=1000 that's < 15.
            let h = m.inner.read(|t| height(&t.root));
            assert!(h <= 15, "AVL height {h} too large for 1000 keys");
        }
    }

    #[test]
    fn scan_break_stops_early() {
        let m: AvlTreeMap<i64, i64> = AvlTreeMap::new();
        for i in 0..100 {
            m.write(&i, Some(i));
        }
        let mut seen = Vec::new();
        m.scan(&mut |k, _| {
            seen.push(*k);
            if seen.len() == 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn props_row() {
        let m: AvlTreeMap<i64, i64> = AvlTreeMap::new();
        assert_eq!(m.props().name, "TreeMap");
        assert!(m.props().sorted_scan);
        assert!(!m.props().is_concurrency_safe());
    }
}
