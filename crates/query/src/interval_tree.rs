//! A static augmented interval tree over [`TimeInterval`]s.
//!
//! The query engine answers "which trajectories / stays were live at time
//! `t` (or during window `w`)?" against datasets with tens of thousands of
//! presence intervals. A linear scan is O(n) per query; this tree is
//! O(log n + k). It is *static*: built once from the indexed collection,
//! which matches the engine's build-then-query lifecycle and avoids
//! rebalancing machinery.
//!
//! Layout: the classic augmented balanced BST. Entries are sorted by
//! interval start, the tree is the implicit median-split tree over that
//! sorted array, and every node carries the maximum interval end in its
//! subtree, which lets descents prune whole subtrees.

use sitm_core::{TimeInterval, Timestamp};

/// One indexed entry: an interval plus an opaque payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<P> {
    /// The indexed interval.
    pub interval: TimeInterval,
    /// Caller payload (typically a trajectory or stay id).
    pub payload: P,
}

/// A static augmented interval tree.
///
/// Build with [`IntervalTree::build`]; query with [`IntervalTree::stab`]
/// and [`IntervalTree::overlapping`].
#[derive(Debug, Clone, Default)]
pub struct IntervalTree<P> {
    /// Entries sorted by `(start, end)`.
    entries: Vec<Entry<P>>,
    /// `max_end[i]` = maximum interval end within the subtree rooted at
    /// index `i` of the implicit median-split tree.
    max_end: Vec<Timestamp>,
}

impl<P: Copy> IntervalTree<P> {
    /// Builds a tree from arbitrary-order entries.
    pub fn build(mut entries: Vec<Entry<P>>) -> IntervalTree<P> {
        entries.sort_by_key(|e| (e.interval.start, e.interval.end));
        let mut max_end = vec![Timestamp(i64::MIN); entries.len()];
        fill_max_ends(&entries, &mut max_end);
        IntervalTree { entries, max_end }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All payloads whose interval contains instant `t` (inclusive ends),
    /// in `(start, end)` order.
    pub fn stab(&self, t: Timestamp) -> Vec<P> {
        self.overlapping(TimeInterval::new(t, t))
    }

    /// All payloads whose interval shares at least one instant with
    /// `window`, in `(start, end)` order.
    pub fn overlapping(&self, window: TimeInterval) -> Vec<P> {
        let mut out = Vec::new();
        collect_overlapping(&self.entries, &self.max_end, window, &mut out);
        out
    }

    /// True when at least one indexed interval overlaps `window` (early
    /// exit, cheaper than `overlapping().is_empty()`).
    pub fn any_overlapping(&self, window: TimeInterval) -> bool {
        !self.entries.is_empty() && self.probe(0, self.entries.len(), window)
    }

    fn probe(&self, lo: usize, hi: usize, window: TimeInterval) -> bool {
        let mid = lo + (hi - lo) / 2;
        if self.max_end[mid] < window.start {
            return false;
        }
        if lo < mid && self.probe(lo, mid, window) {
            return true;
        }
        let e = &self.entries[mid];
        if e.interval.overlaps(window) {
            return true;
        }
        mid + 1 < hi && e.interval.start <= window.end && self.probe(mid + 1, hi, window)
    }
}

/// Fills `max_end` (as long as `entries`, which are sorted by `(start,
/// end)`) with the subtree maxima of the implicit median-split tree
/// over `entries`. A tree is its two slices, so many trees can share
/// two flat arrays: [`crate::TrajectoryDb`] keeps every cell's stay
/// tree as one slice of its stay table.
pub(crate) fn fill_max_ends<P>(entries: &[Entry<P>], max_end: &mut [Timestamp]) {
    if !entries.is_empty() {
        fill_max(entries, max_end, 0, entries.len());
    }
}

/// Computes subtree maxima over the implicit tree of `lo..hi`, whose
/// root is the median index. Returns the subtree max.
fn fill_max<P>(entries: &[Entry<P>], max_end: &mut [Timestamp], lo: usize, hi: usize) -> Timestamp {
    let mid = lo + (hi - lo) / 2;
    let mut max = entries[mid].interval.end;
    if lo < mid {
        max = max.max(fill_max(entries, max_end, lo, mid));
    }
    if mid + 1 < hi {
        max = max.max(fill_max(entries, max_end, mid + 1, hi));
    }
    max_end[mid] = max;
    max
}

/// Appends the payload of every entry of the tree `(entries, max_end)`
/// (see [`fill_max_ends`]) that overlaps `window`, in `(start, end)`
/// order.
pub(crate) fn collect_overlapping<P: Copy>(
    entries: &[Entry<P>],
    max_end: &[Timestamp],
    window: TimeInterval,
    out: &mut Vec<P>,
) {
    if !entries.is_empty() {
        collect(entries, max_end, 0, entries.len(), window, out);
    }
}

fn collect<P: Copy>(
    entries: &[Entry<P>],
    max_end: &[Timestamp],
    lo: usize,
    hi: usize,
    window: TimeInterval,
    out: &mut Vec<P>,
) {
    let mid = lo + (hi - lo) / 2;
    // Prune: nothing in this subtree ends at/after the window start.
    if max_end[mid] < window.start {
        return;
    }
    if lo < mid {
        collect(entries, max_end, lo, mid, window, out);
    }
    let e = &entries[mid];
    if e.interval.overlaps(window) {
        out.push(e.payload);
    }
    // Entries right of mid all start at/after this start; if that is
    // already past the window end the right subtree cannot overlap.
    if mid + 1 < hi && e.interval.start <= window.end {
        collect(entries, max_end, mid + 1, hi, window, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(start: i64, end: i64) -> TimeInterval {
        TimeInterval::new(Timestamp(start), Timestamp(end))
    }

    fn tree(items: &[(i64, i64)]) -> IntervalTree<usize> {
        IntervalTree::build(
            items
                .iter()
                .enumerate()
                .map(|(i, &(s, e))| Entry {
                    interval: iv(s, e),
                    payload: i,
                })
                .collect(),
        )
    }

    #[test]
    fn empty_tree() {
        let t: IntervalTree<usize> = IntervalTree::build(vec![]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.stab(Timestamp(0)).is_empty());
        assert!(!t.any_overlapping(iv(0, 100)));
    }

    #[test]
    fn stab_hits_inclusive_bounds() {
        let t = tree(&[(10, 20)]);
        assert_eq!(t.stab(Timestamp(10)), vec![0]);
        assert_eq!(t.stab(Timestamp(20)), vec![0]);
        assert_eq!(t.stab(Timestamp(15)), vec![0]);
        assert!(t.stab(Timestamp(9)).is_empty());
        assert!(t.stab(Timestamp(21)).is_empty());
    }

    #[test]
    fn zero_length_intervals_are_stabbable() {
        // The paper's zero-duration detections remain queryable.
        let t = tree(&[(5, 5), (5, 9)]);
        assert_eq!(t.stab(Timestamp(5)), vec![0, 1]);
        assert_eq!(t.stab(Timestamp(6)), vec![1]);
    }

    #[test]
    fn overlapping_returns_sorted_by_start() {
        let t = tree(&[(30, 40), (0, 100), (10, 20), (50, 60)]);
        assert_eq!(t.overlapping(iv(15, 55)), vec![1, 2, 0, 3]);
        assert_eq!(t.overlapping(iv(41, 49)), vec![1]);
        assert!(t.overlapping(iv(101, 200)).is_empty());
    }

    #[test]
    fn any_overlapping_matches_overlapping() {
        let t = tree(&[(0, 2), (8, 9), (4, 6)]);
        for (s, e) in [(0, 0), (3, 3), (2, 4), (7, 7), (9, 12), (10, 20)] {
            assert_eq!(
                t.any_overlapping(iv(s, e)),
                !t.overlapping(iv(s, e)).is_empty(),
                "window [{s},{e}]"
            );
        }
    }

    #[test]
    fn nested_and_duplicate_intervals() {
        let t = tree(&[(0, 100), (0, 100), (40, 60), (50, 50)]);
        assert_eq!(t.stab(Timestamp(50)).len(), 4);
        assert_eq!(t.overlapping(iv(0, 10)).len(), 2);
    }

    #[test]
    fn agrees_with_naive_scan_on_fixed_cases() {
        let items: Vec<(i64, i64)> = (0..64).map(|i| (i * 3 % 50, i * 3 % 50 + i % 7)).collect();
        let t = tree(&items);
        for w in [(0, 0), (10, 10), (5, 25), (48, 60), (0, 100)] {
            let window = iv(w.0, w.1);
            let mut naive: Vec<usize> = items
                .iter()
                .enumerate()
                .filter(|(_, &(s, e))| iv(s, e).overlaps(window))
                .map(|(i, _)| i)
                .collect();
            let mut got = t.overlapping(window);
            naive.sort_by_key(|&i| (items[i].0, items[i].1, i));
            // Sort both by (start,end) then payload for a stable comparison:
            // payload order within equal intervals is unspecified.
            got.sort_by_key(|&i| (items[i].0, items[i].1, i));
            assert_eq!(got, naive, "window {w:?}");
        }
    }
}
