//! Semantic annotations.
//!
//! "A trajectory semantic annotation is not confined within specific types
//! of information, but would typically be chosen to represent an activity,
//! a behavior, or a goal showcased by the complete trajectory. [...] we
//! consider an 'activity' to concern more targeted/conscious actions than a
//! 'behavior' [...] A 'goal' might instead concern the potentiality of
//! movement" (§3.3). Annotations also attach to individual presence
//! intervals (`A_i`) and to episodes.
//!
//! Cost model: an [`AnnotationSet`] is a shared value, because the same
//! few sets (`{goal:visit}`) repeat on every row that crosses a tier. It
//! is a sorted, de-duplicated run behind one `Arc`:
//!
//! * the empty set (most per-stay `A_i`) allocates nothing;
//! * a clone or a drop is one reference-count update, no annotation is
//!   copied;
//! * [`AnnotationSet::insert`] and [`AnnotationSet::remove`] copy on
//!   write: a set with one holder is edited in place, a shared one is
//!   copied once and the copy edited, so every other holder keeps what
//!   it saw.
//!
//! Decoders can therefore hand one set to many rows
//! (`sitm_store::codec::decode_annotations` does).

use std::fmt;
use std::sync::Arc;

/// Kind of an annotation, following the paper's distinction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnnotationKind {
    /// Potentiality of movement (e.g. "exit museum", "buy souvenir").
    Goal,
    /// Targeted, conscious action (e.g. "guided tour").
    Activity,
    /// Less intentional action or reaction (e.g. "wandering").
    Behavior,
    /// Any other annotation dimension, named (e.g. "inference", "device").
    Custom(String),
}

impl AnnotationKind {
    /// Canonical name.
    pub fn name(&self) -> &str {
        match self {
            AnnotationKind::Goal => "goal",
            AnnotationKind::Activity => "activity",
            AnnotationKind::Behavior => "behavior",
            AnnotationKind::Custom(s) => s,
        }
    }

    /// Parses a canonical name.
    pub fn parse(s: &str) -> AnnotationKind {
        match s {
            "goal" => AnnotationKind::Goal,
            "activity" => AnnotationKind::Activity,
            "behavior" => AnnotationKind::Behavior,
            other => AnnotationKind::Custom(other.to_string()),
        }
    }
}

impl fmt::Display for AnnotationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One annotation: a kind plus a value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Annotation {
    /// Annotation dimension.
    pub kind: AnnotationKind,
    /// Annotation value (e.g. `"visit"`, `"buy"`).
    pub value: String,
}

impl Annotation {
    /// Creates an annotation.
    pub fn new(kind: AnnotationKind, value: impl Into<String>) -> Self {
        Annotation {
            kind,
            value: value.into(),
        }
    }

    /// Shorthand for a goal annotation.
    pub fn goal(value: impl Into<String>) -> Self {
        Annotation::new(AnnotationKind::Goal, value)
    }

    /// Shorthand for an activity annotation.
    pub fn activity(value: impl Into<String>) -> Self {
        Annotation::new(AnnotationKind::Activity, value)
    }

    /// Shorthand for a behavior annotation.
    pub fn behavior(value: impl Into<String>) -> Self {
        Annotation::new(AnnotationKind::Behavior, value)
    }
}

impl fmt::Display for Annotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.kind, self.value)
    }
}

/// An ordered, duplicate-free set of annotations: a shared value, with
/// the cost model in the [module docs](self). Equality, ordering and
/// hashing are over the sorted contents, so iteration order and `Ord`
/// are a `BTreeSet<Annotation>`'s.
#[derive(Clone, PartialEq, Eq, Default, Hash, PartialOrd, Ord)]
pub struct AnnotationSet {
    /// Sorted, strictly ascending and never empty; `None` is the empty set.
    items: Option<Arc<Vec<Annotation>>>,
}

impl AnnotationSet {
    /// The empty set (legal for per-stay `A_i`; illegal for `A_traj`).
    pub fn new() -> Self {
        AnnotationSet::default()
    }

    /// Builds a set from annotations.
    #[allow(clippy::should_implement_trait)] // set-builder convenience, mirrored by the trait impl below
    pub fn from_iter<I: IntoIterator<Item = Annotation>>(iter: I) -> Self {
        let mut items: Vec<Annotation> = iter.into_iter().collect();
        if !items.is_sorted_by(|a, b| a < b) {
            items.sort_unstable();
            items.dedup();
        }
        AnnotationSet {
            items: (!items.is_empty()).then(|| Arc::new(items)),
        }
    }

    /// The annotations in order.
    fn as_slice(&self) -> &[Annotation] {
        self.items.as_deref().map_or(&[], Vec::as_slice)
    }

    /// Number of annotations.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_none()
    }

    /// Adds an annotation; returns whether it was new.
    pub fn insert(&mut self, a: Annotation) -> bool {
        let Err(at) = self.as_slice().binary_search(&a) else {
            return false;
        };
        match &mut self.items {
            Some(items) => Arc::make_mut(items).insert(at, a),
            None => self.items = Some(Arc::new(vec![a])),
        }
        true
    }

    /// Removes an annotation; returns whether it was present.
    pub fn remove(&mut self, a: &Annotation) -> bool {
        let Ok(at) = self.as_slice().binary_search(a) else {
            return false;
        };
        match &mut self.items {
            Some(items) if items.len() > 1 => {
                Arc::make_mut(items).remove(at);
            }
            _ => self.items = None,
        }
        true
    }

    /// True if the exact annotation is present.
    pub fn contains(&self, a: &Annotation) -> bool {
        self.as_slice().binary_search(a).is_ok()
    }

    /// True if any annotation of `kind` with `value` is present.
    pub fn has(&self, kind: &AnnotationKind, value: &str) -> bool {
        self.iter().any(|a| &a.kind == kind && a.value == value)
    }

    /// Values of all annotations of the given kind, in order.
    pub fn values_of(&self, kind: &AnnotationKind) -> Vec<&str> {
        self.iter()
            .filter(|a| &a.kind == kind)
            .map(|a| a.value.as_str())
            .collect()
    }

    /// Union of two sets. When one side holds the other (either is
    /// empty, or the two are equal) the result is that side, shared.
    #[must_use]
    pub fn union(&self, other: &AnnotationSet) -> AnnotationSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        if is_subset(b, a) {
            return self.clone();
        }
        if is_subset(a, b) {
            return other.clone();
        }
        a.iter().chain(b).cloned().collect()
    }

    /// Iterates annotations in order.
    pub fn iter(&self) -> impl Iterator<Item = &Annotation> {
        self.as_slice().iter()
    }
}

/// True when every annotation of the sorted run `small` is in the
/// sorted run `big`.
fn is_subset(small: &[Annotation], big: &[Annotation]) -> bool {
    if small.len() > big.len() {
        return false;
    }
    if std::ptr::eq(small, big) {
        return true;
    }
    let mut rest = big.iter();
    small.iter().all(|a| rest.any(|b| b == a))
}

impl fmt::Debug for AnnotationSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<Annotation> for AnnotationSet {
    fn from_iter<T: IntoIterator<Item = Annotation>>(iter: T) -> Self {
        AnnotationSet::from_iter(iter)
    }
}

impl fmt::Display for AnnotationSet {
    /// Paper style: `{goals:["visit","buy"]}` — grouped by kind.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut kinds: Vec<&AnnotationKind> = self.iter().map(|a| &a.kind).collect();
        kinds.dedup();
        for (i, kind) in kinds.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{kind}s:[")?;
            for (j, v) in self.values_of(kind).iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "\"{v}\"")?;
            }
            write!(f, "]")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in [
            AnnotationKind::Goal,
            AnnotationKind::Activity,
            AnnotationKind::Behavior,
            AnnotationKind::Custom("inference".into()),
        ] {
            assert_eq!(AnnotationKind::parse(k.name()), k);
        }
    }

    #[test]
    fn set_deduplicates() {
        let mut set = AnnotationSet::new();
        assert!(set.insert(Annotation::goal("visit")));
        assert!(!set.insert(Annotation::goal("visit")), "duplicate rejected");
        assert!(set.insert(Annotation::goal("buy")));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn has_and_values_of() {
        let set = AnnotationSet::from_iter([
            Annotation::goal("visit"),
            Annotation::goal("buy"),
            Annotation::activity("guided-tour"),
        ]);
        assert!(set.has(&AnnotationKind::Goal, "visit"));
        assert!(!set.has(&AnnotationKind::Behavior, "visit"));
        assert_eq!(set.values_of(&AnnotationKind::Goal), vec!["buy", "visit"]);
        assert_eq!(
            set.values_of(&AnnotationKind::Activity),
            vec!["guided-tour"]
        );
    }

    #[test]
    fn union_merges() {
        let a = AnnotationSet::from_iter([Annotation::goal("visit")]);
        let b = AnnotationSet::from_iter([Annotation::goal("visit"), Annotation::goal("buy")]);
        let u = a.union(&b);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn display_groups_by_kind() {
        // The paper's example: {goals:["visit","buy"]}.
        let set = AnnotationSet::from_iter([Annotation::goal("visit"), Annotation::goal("buy")]);
        assert_eq!(set.to_string(), r#"{goals:["buy","visit"]}"#);
        assert_eq!(AnnotationSet::new().to_string(), "{}");
    }

    #[test]
    fn remove_and_contains() {
        let mut set = AnnotationSet::from_iter([Annotation::behavior("wandering")]);
        let a = Annotation::behavior("wandering");
        assert!(set.contains(&a));
        assert!(set.remove(&a));
        assert!(!set.contains(&a));
        assert!(set.is_empty());
    }

    #[test]
    fn sets_compare_ignoring_insertion_order() {
        let a = AnnotationSet::from_iter([Annotation::goal("x"), Annotation::goal("y")]);
        let b = AnnotationSet::from_iter([Annotation::goal("y"), Annotation::goal("x")]);
        assert_eq!(a, b);
    }
}
