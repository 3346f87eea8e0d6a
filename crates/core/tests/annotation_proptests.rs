//! `AnnotationSet` against a `BTreeSet<Annotation>` oracle: random
//! `from_iter` / `insert` / `remove` / `union` sequences must agree on
//! every observation, equal sets must hash equal, and mutating a clone
//! (the copy-on-write path) must leave every other holder untouched.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use proptest::TestCaseError;

use sitm_core::{Annotation, AnnotationKind, AnnotationSet};

const VALUES: [&str; 4] = ["visit", "buy", "ios", ""];

fn kinds() -> [AnnotationKind; 5] {
    [
        AnnotationKind::Goal,
        AnnotationKind::Activity,
        AnnotationKind::Behavior,
        AnnotationKind::Custom("device".into()),
        AnnotationKind::Custom("aardvark".into()),
    ]
}

/// Annotation `i` of the 20-word vocabulary (small, so sequences collide).
fn word(i: usize) -> Annotation {
    let kinds = kinds();
    Annotation::new(
        kinds[i % kinds.len()].clone(),
        VALUES[i / kinds.len() % VALUES.len()],
    )
}

type Oracle = BTreeSet<Annotation>;

fn set_of(words: &[usize]) -> (AnnotationSet, Oracle) {
    (
        AnnotationSet::from_iter(words.iter().map(|&i| word(i))),
        words.iter().map(|&i| word(i)).collect(),
    )
}

/// The oracle's `Display`: the paper's `{goals:["buy","visit"]}`.
fn display(oracle: &Oracle) -> String {
    let mut kinds: Vec<&AnnotationKind> = oracle.iter().map(|a| &a.kind).collect();
    kinds.dedup();
    let groups: Vec<String> = kinds
        .iter()
        .map(|kind| {
            let values: Vec<String> = oracle
                .iter()
                .filter(|a| &a.kind == *kind)
                .map(|a| format!("\"{}\"", a.value))
                .collect();
            format!("{kind}s:[{}]", values.join(","))
        })
        .collect();
    format!("{{{}}}", groups.join(","))
}

fn hash_of(set: &AnnotationSet) -> u64 {
    let mut h = DefaultHasher::new();
    set.hash(&mut h);
    h.finish()
}

/// Every observation of `set` equals the oracle's.
fn agrees(set: &AnnotationSet, oracle: &Oracle) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        set.iter().collect::<Vec<_>>(),
        oracle.iter().collect::<Vec<_>>()
    );
    prop_assert_eq!(set.len(), oracle.len());
    prop_assert_eq!(set.is_empty(), oracle.is_empty());
    for i in 0..20 {
        let a = word(i);
        prop_assert_eq!(set.contains(&a), oracle.contains(&a));
        prop_assert_eq!(set.has(&a.kind, &a.value), oracle.contains(&a));
    }
    for kind in kinds() {
        let values: Vec<&str> = oracle
            .iter()
            .filter(|a| a.kind == kind)
            .map(|a| a.value.as_str())
            .collect();
        prop_assert_eq!(set.values_of(&kind), values);
    }
    prop_assert_eq!(set.to_string(), display(oracle));
    // The same contents built afresh: equal, and hashing equal.
    let rebuilt = AnnotationSet::from_iter(oracle.iter().cloned());
    prop_assert_eq!(&rebuilt, set);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(set));
    Ok(())
}

/// One step: `(op, word, other set's words)`.
fn step() -> impl Strategy<Value = (u8, usize, Vec<usize>)> {
    (0u8..4, 0usize..20, prop::collection::vec(0usize..20, 0..6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sets_behave_as_a_btree_set(
        start in prop::collection::vec(0usize..20, 0..8),
        steps in prop::collection::vec(step(), 0..24),
    ) {
        let (mut set, mut oracle) = set_of(&start);
        agrees(&set, &oracle)?;
        // Every earlier state, still held: a later edit must not reach it.
        let mut held: Vec<(AnnotationSet, Oracle)> = vec![(set.clone(), oracle.clone())];
        for (op, w, other) in steps {
            match op {
                0 => prop_assert_eq!(set.insert(word(w)), oracle.insert(word(w))),
                1 => prop_assert_eq!(set.remove(&word(w)), oracle.remove(&word(w))),
                2 => {
                    let (other, other_oracle) = set_of(&other);
                    let union = set.union(&other);
                    let union_oracle: Oracle = oracle.union(&other_oracle).cloned().collect();
                    agrees(&union, &union_oracle)?;
                    // Either way round.
                    prop_assert_eq!(&other.union(&set), &union);
                    agrees(&other, &other_oracle)?;
                    set = union;
                    oracle = union_oracle;
                }
                _ => {
                    // An empty set and equal sets are unions' fixed points.
                    prop_assert_eq!(&set.union(&AnnotationSet::new()), &set);
                    prop_assert_eq!(&AnnotationSet::new().union(&set), &set);
                    prop_assert_eq!(&set.union(&set.clone()), &set);
                }
            }
            agrees(&set, &oracle)?;
            for (earlier, earlier_oracle) in &held {
                agrees(earlier, earlier_oracle)?;
                prop_assert_eq!(earlier.cmp(&set), earlier_oracle.cmp(&oracle));
                prop_assert_eq!(earlier == &set, earlier_oracle == &oracle);
                if earlier == &set {
                    prop_assert_eq!(hash_of(earlier), hash_of(&set));
                }
            }
            // Hold every other state, so edits run both in place (the
            // set's only holder) and copied on write (a shared one).
            if w % 2 == 0 {
                held.push((set.clone(), oracle.clone()));
            }
        }
    }
}
