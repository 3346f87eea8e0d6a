//! The moving-object dimension: the paper keys every trajectory by its
//! moving object (`IDmo`), and the warehouse looks that key up in two
//! places — each segment's zone-map [`ObjectSet`], and the
//! cross-segment [`ObjectIndex`] derived from them. Both are flat
//! sorted tables: every name in one buffer, found by binary search and
//! addressed by rank, so opening a warehouse allocates per segment, not
//! per name.

use std::cmp::Ordering;

use sitm_codec::{put_str, put_u64, take_count, take_str};

use super::format::Segment;
use crate::codec::CodecError;

/// A strictly ascending set of moving-object names, stored flat: all
/// names in one buffer plus the end offset of each. `contains` and
/// `rank` binary-search it; `get(rank)` is O(1).
///
/// Encoded as `count (len bytes)*` in ascending order — the bytes an
/// ordered set of strings has always been written as — and decoded in
/// one pass that refuses a list out of order or with a repeat, since
/// every lookup depends on that order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ObjectSet {
    names: String,
    /// `names[ends[i - 1]..ends[i]]` is name `i` (from 0 for the first).
    ends: Vec<u32>,
}

impl ObjectSet {
    /// The set of the names in `run`, which may be unsorted and repeat.
    pub fn from_run(mut run: Vec<&str>) -> ObjectSet {
        run.sort_unstable();
        run.dedup();
        ObjectSet::from_sorted(&run)
    }

    /// The union of `sets`: one k-way merge, no name copied twice.
    pub fn union(sets: &[&ObjectSet]) -> ObjectSet {
        let mut out = ObjectSet::with_capacity(sets);
        merge(sets, |name, _| out.push(name));
        out
    }

    /// Space for every name of `sets` (an upper bound on their union).
    fn with_capacity(sets: &[&ObjectSet]) -> ObjectSet {
        ObjectSet {
            names: String::with_capacity(sets.iter().map(|s| s.names.len()).sum()),
            ends: Vec::with_capacity(sets.iter().map(|s| s.len()).sum()),
        }
    }

    /// The set of `sorted`, which is strictly ascending.
    fn from_sorted(sorted: &[&str]) -> ObjectSet {
        let mut set = ObjectSet {
            names: String::with_capacity(sorted.iter().map(|n| n.len()).sum()),
            ends: Vec::with_capacity(sorted.len()),
        };
        for name in sorted {
            set.push(name);
        }
        set
    }

    /// Appends `name`, which sorts after every name already held.
    fn push(&mut self, name: &str) {
        self.names.push_str(name);
        let end = u32::try_from(self.names.len()).expect("a set's names fit in 4 GiB");
        self.ends.push(end);
    }

    /// Names in the set.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the set holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name of rank `rank` (the `rank`-th smallest), if any.
    pub fn get(&self, rank: usize) -> Option<&str> {
        let end = *self.ends.get(rank)? as usize;
        let start = match rank {
            0 => 0,
            _ => self.ends[rank - 1] as usize,
        };
        Some(&self.names[start..end])
    }

    /// The rank of `name`, if the set holds it.
    pub fn rank(&self, name: &str) -> Option<usize> {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            match self.get(mid)?.cmp(name) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// True when the set holds `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.rank(name).is_some()
    }

    /// The names in ascending order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|rank| self.get(rank).expect("rank below len"))
    }

    /// Encodes the set as `count (len bytes)*`, ascending.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.len() as u64);
        for name in self.iter() {
            put_str(buf, name);
        }
    }

    /// Decodes a set encoded by [`ObjectSet::encode`]: every name
    /// UTF-8-checked, the list refused unless strictly ascending.
    pub fn decode(buf: &mut &[u8]) -> Result<ObjectSet, CodecError> {
        let count = take_count(buf, 1)?;
        let mut run: Vec<&str> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = take_str(buf)?;
            if run.last().is_some_and(|&last| last >= name) {
                return Err(CodecError::Unsorted);
            }
            run.push(name);
        }
        Ok(ObjectSet::from_sorted(&run))
    }
}

/// Walks the union of `sets`, each strictly ascending, in ascending
/// order: `visit(name, members)` once per distinct name, `members` the
/// indexes into `sets` of the sets holding it, ascending.
fn merge<'a>(sets: &[&'a ObjectSet], mut visit: impl FnMut(&'a str, &[usize])) {
    let mut next = vec![0; sets.len()];
    let mut members = Vec::with_capacity(sets.len());
    loop {
        let mut least: Option<&'a str> = None;
        members.clear();
        for (s, set) in sets.iter().enumerate() {
            let Some(name) = set.get(next[s]) else {
                continue;
            };
            match least.map(|least| name.cmp(least)) {
                None | Some(Ordering::Less) => {
                    least = Some(name);
                    members.clear();
                    members.push(s);
                }
                Some(Ordering::Equal) => members.push(s),
                Some(Ordering::Greater) => {}
            }
        }
        let Some(name) = least else {
            return;
        };
        for &s in &members {
            next[s] += 1;
        }
        visit(name, &members);
    }
}

/// The cross-segment object index: every object of the live segments'
/// zone maps, with the ids of the segments holding it as compressed
/// sparse rows. Derived, never stored: one [`merge`] of the zone-map
/// sets, at open and after every commit.
#[derive(Debug, Default)]
pub(super) struct ObjectIndex {
    objects: ObjectSet,
    /// Object `i`'s segment ids are `segments[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Ascending within each object's row.
    segments: Vec<u64>,
}

impl ObjectIndex {
    /// The index of the objects of `live`.
    pub(super) fn build(live: &[Segment]) -> ObjectIndex {
        // Merged in id order, so each object's ids come out ascending.
        let mut by_id: Vec<&Segment> = live.iter().collect();
        by_id.sort_unstable_by_key(|s| s.id);
        let sets: Vec<&ObjectSet> = by_id.iter().map(|s| &s.zone_map.objects).collect();
        let mut index = ObjectIndex {
            objects: ObjectSet::with_capacity(&sets),
            starts: Vec::with_capacity(sets.iter().map(|s| s.len()).sum::<usize>() + 1),
            segments: Vec::with_capacity(sets.iter().map(|s| s.len()).sum()),
        };
        index.starts.push(0);
        merge(&sets, |name, members| {
            index.objects.push(name);
            index.segments.extend(members.iter().map(|&m| by_id[m].id));
            let end = u32::try_from(index.segments.len()).expect("postings fit in u32");
            index.starts.push(end);
        });
        index
    }

    /// The ids of the segments holding `object`, ascending (empty when
    /// none does).
    pub(super) fn segments_of(&self, object: &str) -> &[u64] {
        match self.objects.rank(object) {
            Some(i) => &self.segments[self.starts[i] as usize..self.starts[i + 1] as usize],
            None => &[],
        }
    }

    /// Distinct objects indexed.
    pub(super) fn len(&self) -> usize {
        self.objects.len()
    }
}
