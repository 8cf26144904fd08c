//! Attribute maps: the `αin` / `αout` components of a log record.
//!
//! A *map* in the paper is a partial function `A → D` with finite domain.
//! [`AttrMap`] realises this as a vector of `(name, value)` entries sorted
//! by [`AttrName`], so that display and serialization are deterministic.
//! Records carry a handful of attributes each; one contiguous allocation
//! per map, searched by bisection, is smaller and faster to build and
//! free than a tree of nodes.

use std::fmt;

use crate::names::AttrName;
use crate::value::Value;

/// A finite partial map from attribute names to values.
///
/// Used for both the input map `αin` (attributes *read* by an activity) and
/// the output map `αout` (attributes *written*).
///
/// # Examples
///
/// ```
/// use wlq_log::{AttrMap, Value};
///
/// let mut m = AttrMap::new();
/// m.set("balance", 1000i64);
/// m.set("referState", "active");
/// assert_eq!(m.get("balance"), Some(&Value::Int(1000)));
/// assert_eq!(m.len(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AttrMap {
    /// Sorted by name, names distinct.
    entries: Vec<(AttrName, Value)>,
}

impl AttrMap {
    /// Creates an empty map (the `-` entries of the paper's Figure 3).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of attributes in the map.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map defines no attribute.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn find(&self, name: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name))
    }

    /// Sets `name` to `value`, returning the previous value if any.
    pub fn set(&mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Option<Value> {
        let name = name.into();
        let value = value.into();
        // Entries usually arrive in name order (every writer emits them
        // so): appending needs no search.
        if self.entries.last().is_none_or(|(k, _)| *k < name) {
            self.entries.push((name, value));
            return None;
        }
        match self.find(name.as_str()) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (name, value));
                None
            }
        }
    }

    /// Builder-style [`set`](Self::set); handy for literal maps.
    ///
    /// ```
    /// use wlq_log::AttrMap;
    /// let m = AttrMap::new().with("a", 1i64).with("b", "x");
    /// assert_eq!(m.len(), 2);
    /// ```
    #[must_use]
    pub fn with(mut self, name: impl Into<AttrName>, value: impl Into<Value>) -> Self {
        self.set(name, value);
        self
    }

    /// Looks up the value of `name`, or `None` if the map does not define it.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.find(name).ok().map(|i| &self.entries[i].1)
    }

    /// Looks up `name`, treating absence as the undefined value `⊥`.
    ///
    /// This matches the paper's convention that an attribute outside the
    /// map's domain is undefined.
    #[must_use]
    pub fn get_or_undefined(&self, name: &str) -> Value {
        self.get(name).cloned().unwrap_or(Value::Undefined)
    }

    /// Returns `true` if the map defines `name`.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.find(name).is_ok()
    }

    /// Removes `name` from the map, returning its value if present.
    pub fn remove(&mut self, name: &str) -> Option<Value> {
        self.find(name).ok().map(|i| self.entries.remove(i).1)
    }

    /// Iterates over `(name, value)` pairs in attribute-name order.
    pub fn iter(&self) -> AttrMapIter<'_> {
        AttrMapIter(self.entries.iter())
    }

    /// Iterates over the attribute names (the map's domain) in order.
    pub fn names(&self) -> impl Iterator<Item = &AttrName> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Merges `other` into `self`; entries of `other` win on conflicts.
    ///
    /// Used by the workflow engine to apply an activity's output map to an
    /// instance's attribute store.
    pub fn apply(&mut self, other: &AttrMap) {
        for (k, v) in other.iter() {
            self.set(k.clone(), v.clone());
        }
    }
}

impl fmt::Debug for AttrMap {
    /// The same output as a map-backed `#[derive(Debug)]`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Entries<'a>(&'a AttrMap);
        impl fmt::Debug for Entries<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("AttrMap")
            .field("entries", &Entries(self))
            .finish()
    }
}

impl fmt::Display for AttrMap {
    /// Formats the map the way the paper's Figure 3 does:
    /// `a=1, b=x`, or `-` when empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("-");
        }
        let mut first = true;
        for (k, v) in &self.entries {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

impl<N: Into<AttrName>, V: Into<Value>> FromIterator<(N, V)> for AttrMap {
    fn from_iter<I: IntoIterator<Item = (N, V)>>(iter: I) -> Self {
        let mut m = AttrMap::new();
        for (n, v) in iter {
            m.set(n, v);
        }
        m
    }
}

impl<N: Into<AttrName>, V: Into<Value>> Extend<(N, V)> for AttrMap {
    fn extend<I: IntoIterator<Item = (N, V)>>(&mut self, iter: I) {
        for (n, v) in iter {
            self.set(n, v);
        }
    }
}

/// Borrowing iterator over an [`AttrMap`]'s entries, in name order.
#[derive(Debug, Clone)]
pub struct AttrMapIter<'a>(std::slice::Iter<'a, (AttrName, Value)>);

impl<'a> Iterator for AttrMapIter<'a> {
    type Item = (&'a AttrName, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for AttrMapIter<'_> {}

impl IntoIterator for AttrMap {
    type Item = (AttrName, Value);
    type IntoIter = std::vec::IntoIter<(AttrName, Value)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<'a> IntoIterator for &'a AttrMap {
    type Item = (&'a AttrName, &'a Value);
    type IntoIter = AttrMapIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Convenience macro for attribute-map literals.
///
/// ```
/// use wlq_log::{attrs, Value};
/// let m = attrs! { "referId" => "034d1", "balance" => 1000i64 };
/// assert_eq!(m.get("balance"), Some(&Value::Int(1000)));
/// ```
#[macro_export]
macro_rules! attrs {
    () => { $crate::AttrMap::new() };
    ($($name:expr => $value:expr),+ $(,)?) => {{
        let mut m = $crate::AttrMap::new();
        $( m.set($name, $value); )+
        m
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_displays_as_dash() {
        assert_eq!(AttrMap::new().to_string(), "-");
        assert!(AttrMap::new().is_empty());
    }

    #[test]
    fn set_get_remove_round_trip() {
        let mut m = AttrMap::new();
        assert_eq!(m.set("a", 1i64), None);
        assert_eq!(m.set("a", 2i64), Some(Value::Int(1)));
        assert_eq!(m.get("a"), Some(&Value::Int(2)));
        assert_eq!(m.remove("a"), Some(Value::Int(2)));
        assert!(m.is_empty());
    }

    #[test]
    fn get_or_undefined_models_partial_function() {
        let m = attrs! { "x" => 1i64 };
        assert_eq!(m.get_or_undefined("x"), Value::Int(1));
        assert_eq!(m.get_or_undefined("missing"), Value::Undefined);
    }

    #[test]
    fn display_is_sorted_and_comma_separated() {
        let m = attrs! { "b" => 2i64, "a" => 1i64 };
        assert_eq!(m.to_string(), "a=1, b=2");
    }

    #[test]
    fn apply_overwrites_and_extends() {
        let mut store = attrs! { "balance" => 1000i64, "state" => "start" };
        let out = attrs! { "state" => "active", "receipt" => 560i64 };
        store.apply(&out);
        assert_eq!(store.get_or_undefined("state"), Value::from("active"));
        assert_eq!(store.get_or_undefined("balance"), Value::Int(1000));
        assert_eq!(store.get_or_undefined("receipt"), Value::Int(560));
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut m: AttrMap = vec![("a", 1i64), ("b", 2i64)].into_iter().collect();
        m.extend(vec![("c", 3i64)]);
        assert_eq!(m.len(), 3);
        let names: Vec<_> = m.names().map(AttrName::to_string).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn out_of_order_sets_keep_names_sorted_and_distinct() {
        let mut m = AttrMap::new();
        for (n, v) in [("c", 3i64), ("a", 1), ("b", 2), ("a", 4)] {
            m.set(n, v);
        }
        assert_eq!(m.to_string(), "a=4, b=2, c=3");
        assert_eq!(m, attrs! { "a" => 4i64, "b" => 2i64, "c" => 3i64 });
        assert_eq!(
            format!("{:?}", attrs! { "b" => 2i64, "a" => 1i64 }),
            r#"AttrMap { entries: {AttrName("a"): Int(1), AttrName("b"): Int(2)} }"#
        );
    }

    #[test]
    fn maps_are_comparable_and_hashable() {
        use std::collections::HashSet;
        let a = attrs! { "x" => 1i64 };
        let b = attrs! { "x" => 1i64 };
        let c = attrs! { "x" => 2i64 };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }
}
