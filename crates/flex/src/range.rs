//! Flat-key scan ranges for the XPath axes.
//!
//! MASS evaluates axes as bounded scans over the clustered (document-order)
//! index. [`KeyRange`] captures one such scan: a half-open interval over
//! flat key encodings. The constructors here turn a context key into the
//! tightest interval that *contains* the axis result; kind/level filtering
//! (e.g. excluding attribute nodes from `child`) happens in the cursor.

use crate::key::FlexKey;

/// A half-open interval `[lo, hi)` over flat key encodings.
/// `hi == None` means unbounded above (to the end of the document index).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound (flat encoding).
    pub lo: Vec<u8>,
    /// Exclusive upper bound, or `None` for "end of index".
    pub hi: Option<Vec<u8>>,
}

impl KeyRange {
    /// The full index: every node of every document.
    pub fn all() -> Self {
        KeyRange {
            lo: Vec::new(),
            hi: None,
        }
    }

    /// An empty range.
    pub fn empty() -> Self {
        KeyRange {
            lo: vec![0],
            hi: Some(vec![0]),
        }
    }

    /// True if `flat` falls inside the range.
    pub fn contains(&self, flat: &[u8]) -> bool {
        flat >= self.lo.as_slice() && self.hi.as_ref().is_none_or(|h| flat < h.as_slice())
    }

    /// True if the range can match nothing.
    pub fn is_empty(&self) -> bool {
        self.hi
            .as_ref()
            .is_some_and(|h| h.as_slice() <= self.lo.as_slice())
    }

    /// Descendant-or-self of `ctx`: the whole subtree including `ctx`.
    pub fn subtree(ctx: &FlexKey) -> Self {
        KeyRange {
            lo: ctx.as_flat().to_vec(),
            hi: ctx.subtree_upper(),
        }
    }

    /// Strict descendants of `ctx` (subtree minus the context itself).
    ///
    /// The smallest flat key greater than `ctx` but still inside the
    /// subtree is `ctx`'s flat bytes followed by anything; since labels
    /// start at byte `0x01`, `flat ++ [0x01]` is a safe inclusive lower
    /// bound below every real child (whose label terminator follows).
    pub fn descendants(ctx: &FlexKey) -> Self {
        let mut lo = ctx.as_flat().to_vec();
        lo.push(1);
        KeyRange {
            lo,
            hi: ctx.subtree_upper(),
        }
    }

    /// Everything after `ctx`'s subtree in document order — the
    /// `following` axis (descendants excluded by construction; ancestors
    /// sort before `ctx` so they are excluded too).
    pub fn following(ctx: &FlexKey) -> Self {
        match ctx.subtree_upper() {
            Some(upper) => KeyRange {
                lo: upper,
                hi: None,
            },
            None => KeyRange::empty(), // document node: nothing follows
        }
    }

    /// Everything strictly before `ctx` in document order. This
    /// *over-approximates* the `preceding` axis: ancestors of `ctx` fall in
    /// the interval and must be filtered by the cursor.
    pub fn before(ctx: &FlexKey) -> Self {
        KeyRange {
            lo: Vec::new(),
            hi: Some(ctx.as_flat().to_vec()),
        }
    }

    /// Following siblings of `ctx`: from the end of `ctx`'s subtree to the
    /// end of the parent's subtree. Deeper nodes (nephews) fall inside and
    /// are skipped by the cursor's sibling-jump.
    pub fn following_siblings(ctx: &FlexKey) -> Self {
        let Some(parent) = ctx.parent() else {
            return KeyRange::empty();
        };
        match ctx.subtree_upper() {
            Some(upper) => KeyRange {
                lo: upper,
                hi: if parent.is_root() {
                    None
                } else {
                    parent.subtree_upper()
                },
            },
            None => KeyRange::empty(),
        }
    }

    /// Preceding siblings of `ctx` (over-approximate: contains their
    /// subtrees; the cursor jumps sibling-to-sibling).
    pub fn preceding_siblings(ctx: &FlexKey) -> Self {
        let Some(parent) = ctx.parent() else {
            return KeyRange::empty();
        };
        let mut lo = parent.as_flat().to_vec();
        lo.push(1);
        KeyRange {
            lo,
            hi: Some(ctx.as_flat().to_vec()),
        }
    }

    /// Intersects two ranges.
    pub fn intersect(&self, other: &KeyRange) -> KeyRange {
        let lo = if self.lo >= other.lo {
            self.lo.clone()
        } else {
            other.lo.clone()
        };
        let hi = match (&self.hi, &other.hi) {
            (None, None) => None,
            (Some(h), None) | (None, Some(h)) => Some(h.clone()),
            (Some(a), Some(b)) => Some(if a <= b { a.clone() } else { b.clone() }),
        };
        KeyRange { lo, hi }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::seq_label;
    use proptest::prelude::*;

    fn key(path: &[u64]) -> FlexKey {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k
    }

    #[test]
    fn subtree_contains_self_and_descendants() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::subtree(&ctx);
        assert!(r.contains(ctx.as_flat()));
        assert!(r.contains(key(&[0, 1, 5]).as_flat()));
        assert!(!r.contains(key(&[0, 2]).as_flat()));
        assert!(!r.contains(key(&[0]).as_flat()));
    }

    #[test]
    fn descendants_excludes_self() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::descendants(&ctx);
        assert!(!r.contains(ctx.as_flat()));
        assert!(r.contains(key(&[0, 1, 0]).as_flat()));
        assert!(r.contains(key(&[0, 1, 0, 0]).as_flat()));
        assert!(!r.contains(key(&[0, 2]).as_flat()));
    }

    #[test]
    fn descendants_of_root_is_everything_but_root() {
        let r = KeyRange::descendants(&FlexKey::root());
        assert!(!r.contains(FlexKey::root().as_flat()));
        assert!(r.contains(key(&[0]).as_flat()));
        assert!(r.contains(key(&[500, 3]).as_flat()));
        assert_eq!(r.hi, None);
    }

    #[test]
    fn following_skips_subtree_and_ancestors() {
        let ctx = key(&[1, 1]);
        let r = KeyRange::following(&ctx);
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[1, 1, 9]).as_flat())); // descendant
        assert!(!r.contains(key(&[1]).as_flat())); // ancestor
        assert!(!r.contains(key(&[0, 5]).as_flat())); // preceding
        assert!(r.contains(key(&[1, 2]).as_flat())); // following sibling
        assert!(r.contains(key(&[2]).as_flat())); // parent's sibling
        assert!(r.contains(key(&[1, 2, 0]).as_flat()));
    }

    #[test]
    fn following_of_document_node_is_empty() {
        assert!(KeyRange::following(&FlexKey::root()).is_empty());
    }

    #[test]
    fn before_contains_ancestors_which_cursor_filters() {
        let ctx = key(&[1, 1]);
        let r = KeyRange::before(&ctx);
        assert!(r.contains(key(&[1]).as_flat())); // ancestor — over-approx
        assert!(r.contains(key(&[0, 9]).as_flat())); // true preceding
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[1, 2]).as_flat()));
    }

    #[test]
    fn following_siblings_bounded_by_parent() {
        let ctx = key(&[0, 1]);
        let r = KeyRange::following_siblings(&ctx);
        assert!(r.contains(key(&[0, 2]).as_flat()));
        assert!(r.contains(key(&[0, 2, 5]).as_flat())); // nephew, cursor skips
        assert!(!r.contains(key(&[1]).as_flat())); // parent's sibling
        assert!(!r.contains(ctx.as_flat()));
        assert!(!r.contains(key(&[0, 0]).as_flat()));
    }

    #[test]
    fn following_siblings_of_top_level_unbounded() {
        // Children of the document node: range extends to end of index.
        let r = KeyRange::following_siblings(&key(&[0]));
        assert_eq!(r.hi, None);
        assert!(r.contains(key(&[3]).as_flat()));
    }

    #[test]
    fn preceding_siblings_bounded_by_self() {
        let ctx = key(&[0, 2]);
        let r = KeyRange::preceding_siblings(&ctx);
        assert!(r.contains(key(&[0, 0]).as_flat()));
        assert!(r.contains(key(&[0, 1]).as_flat()));
        assert!(r.contains(key(&[0, 1, 4]).as_flat())); // nephew, cursor skips
        assert!(!r.contains(key(&[0]).as_flat())); // parent
        assert!(!r.contains(ctx.as_flat()));
    }

    #[test]
    fn sibling_ranges_of_document_node_are_empty() {
        assert!(KeyRange::following_siblings(&FlexKey::root()).is_empty());
        assert!(KeyRange::preceding_siblings(&FlexKey::root()).is_empty());
    }

    #[test]
    fn intersect_narrows() {
        let a = KeyRange::subtree(&key(&[0]));
        let b = KeyRange::following(&key(&[0, 1]));
        let i = a.intersect(&b);
        assert!(i.contains(key(&[0, 2]).as_flat()));
        assert!(!i.contains(key(&[1]).as_flat())); // outside a
        assert!(!i.contains(key(&[0, 0]).as_flat())); // outside b
    }

    #[test]
    fn all_and_empty() {
        assert!(KeyRange::all().contains(key(&[9, 9]).as_flat()));
        assert!(KeyRange::all().contains(FlexKey::root().as_flat()));
        assert!(KeyRange::empty().is_empty());
        assert!(!KeyRange::all().is_empty());
    }

    proptest! {
        #[test]
        fn prop_partition_of_document_order(
            ctx_path in proptest::collection::vec(0u64..50, 1..4),
            other_path in proptest::collection::vec(0u64..50, 1..4),
        ) {
            // Every node is in exactly one of: before, subtree, following.
            let ctx = key(&ctx_path);
            let other = key(&other_path);
            let zones = [
                KeyRange::before(&ctx).contains(other.as_flat()),
                KeyRange::subtree(&ctx).contains(other.as_flat()),
                KeyRange::following(&ctx).contains(other.as_flat()),
            ];
            prop_assert_eq!(zones.iter().filter(|z| **z).count(), 1);
        }
    }
}
