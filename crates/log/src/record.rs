//! Log records (Definition 1) and the identifier newtypes they use.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::attrs::AttrMap;
use crate::lazy::Maps;
use crate::names::Activity;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw numeric value.
            #[must_use]
            pub fn get(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl From<$name> for $inner {
            fn from(v: $name) -> Self {
                v.0
            }
        }
    };
}

id_type! {
    /// A log sequence number: the global, totally-ordered position of a
    /// record in the log (`lsn ∈ N+`, Definition 1). Valid logs number their
    /// records `1..=|L|` (Definition 2, condition 1).
    Lsn(u64)
}

id_type! {
    /// A workflow instance id (`wid ∈ N+`, Definition 1). All records of one
    /// enactment share a `Wid`.
    Wid(u64)
}

id_type! {
    /// An instance-specific log sequence number (`is-lsn ∈ N+`,
    /// Definition 1): the position of a record *within its instance*. Valid
    /// logs number each instance's records consecutively from 1
    /// (Definition 2, conditions 2–3). Incident semantics (`first`, `last`,
    /// consecutive/sequential ordering) are defined over `IsLsn`.
    IsLsn(u32)
}

impl IsLsn {
    /// The `is-lsn` of every `START` record.
    pub const FIRST: IsLsn = IsLsn(1);

    /// The successor position, used by the consecutive operator's
    /// `last(o1) + 1 = first(o2)` check.
    ///
    /// # Panics
    ///
    /// Panics on overflow of the underlying `u32`, which would require a
    /// single workflow instance with more than 4 billion records.
    #[must_use]
    pub fn next(self) -> IsLsn {
        assert!(self.0 < u32::MAX, "is-lsn overflow");
        IsLsn(self.0 + 1)
    }
}

/// A workflow log record (Definition 1): the effect of executing one
/// activity in one workflow instance.
///
/// `l = (lsn, wid, is-lsn, t, αin, αout)` — see the accessors
/// [`lsn`](Self::lsn), [`wid`](Self::wid), [`is_lsn`](Self::is_lsn),
/// [`activity`](Self::activity) (`act(l)` in the paper),
/// [`input`](Self::input) (`αin(l)`), and [`output`](Self::output)
/// (`αout(l)`).
///
/// # Examples
///
/// The record `l4` from the paper's Example 1:
///
/// ```
/// use wlq_log::{attrs, LogRecord};
///
/// let l = LogRecord::new(
///     4, 1, 3, "CheckIn",
///     attrs! { "referId" => "034d1", "referState" => "start", "balance" => 1000i64 },
///     attrs! { "referState" => "active" },
/// );
/// assert_eq!(l.lsn().get(), 4);
/// assert_eq!(l.wid().get(), 1);
/// assert_eq!(l.is_lsn().get(), 3);
/// assert_eq!(l.activity(), "CheckIn");
/// ```
///
/// A record read by [`read_text`](crate::io::text::read_text) or
/// [`read_binary`](crate::io::binary::read_binary) keeps its maps encoded
/// in the reader's input until [`input`](Self::input) or
/// [`output`](Self::output) first asks for them. Equality, hashing,
/// formatting and the writers decode such maps into a temporary and leave
/// them encoded.
#[derive(Clone, PartialEq, Eq)]
pub struct LogRecord {
    lsn: Lsn,
    wid: Wid,
    is_lsn: IsLsn,
    activity: Activity,
    maps: Maps,
}

impl LogRecord {
    /// Creates a record from its six components.
    pub fn new(
        lsn: impl Into<Lsn>,
        wid: impl Into<Wid>,
        is_lsn: impl Into<IsLsn>,
        activity: impl Into<Activity>,
        input: AttrMap,
        output: AttrMap,
    ) -> Self {
        LogRecord::with_maps(lsn, wid, is_lsn, activity, Maps::Decoded(input, output))
    }

    /// Creates a record from its identifiers and its (possibly encoded)
    /// maps.
    pub(crate) fn with_maps(
        lsn: impl Into<Lsn>,
        wid: impl Into<Wid>,
        is_lsn: impl Into<IsLsn>,
        activity: impl Into<Activity>,
        maps: Maps,
    ) -> Self {
        LogRecord {
            lsn: lsn.into(),
            wid: wid.into(),
            is_lsn: is_lsn.into(),
            activity: activity.into(),
            maps,
        }
    }

    /// Creates the `START` record opening instance `wid` (is-lsn 1, empty
    /// maps).
    pub fn start(lsn: impl Into<Lsn>, wid: impl Into<Wid>) -> Self {
        LogRecord::new(
            lsn,
            wid,
            IsLsn::FIRST,
            Activity::start(),
            AttrMap::new(),
            AttrMap::new(),
        )
    }

    /// Creates the `END` record closing instance `wid` (empty maps).
    pub fn end(lsn: impl Into<Lsn>, wid: impl Into<Wid>, is_lsn: impl Into<IsLsn>) -> Self {
        LogRecord::new(
            lsn,
            wid,
            is_lsn,
            Activity::end(),
            AttrMap::new(),
            AttrMap::new(),
        )
    }

    /// The global log sequence number, `lsn(l)`.
    #[must_use]
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The workflow instance id, `wid(l)`.
    #[must_use]
    pub fn wid(&self) -> Wid {
        self.wid
    }

    /// The instance-specific log sequence number, `is-lsn(l)`.
    #[must_use]
    pub fn is_lsn(&self) -> IsLsn {
        self.is_lsn
    }

    /// The activity name, `act(l)`.
    #[must_use]
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The input map `αin(l)`: attributes (and values) read by the activity.
    #[must_use]
    pub fn input(&self) -> &AttrMap {
        self.maps.get().0
    }

    /// The output map `αout(l)`: attributes (and values) written.
    #[must_use]
    pub fn output(&self) -> &AttrMap {
        self.maps.get().1
    }

    /// Calls `f` with `αin(l)` and `αout(l)`, decoding maps that are still
    /// encoded into a temporary rather than into the record's cache.
    pub(crate) fn peek_maps<R>(&self, f: impl FnOnce(&AttrMap, &AttrMap) -> R) -> R {
        self.maps.peek(f)
    }

    /// Returns `true` if this is a `START` record.
    #[must_use]
    pub fn is_start(&self) -> bool {
        self.activity.is_start()
    }

    /// Returns `true` if this is an `END` record.
    #[must_use]
    pub fn is_end(&self) -> bool {
        self.activity.is_end()
    }

    /// Re-stamps the global `lsn` (used by log mergers and builders).
    pub(crate) fn set_lsn(&mut self, lsn: Lsn) {
        self.lsn = lsn;
    }

    #[cfg(test)]
    pub(crate) fn maps(&self) -> &Maps {
        &self.maps
    }

    /// Re-stamps the `wid` (used by log mergers).
    pub(crate) fn set_wid(&mut self, wid: Wid) {
        self.wid = wid;
    }
}

impl Hash for LogRecord {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lsn.hash(state);
        self.wid.hash(state);
        self.is_lsn.hash(state);
        self.activity.hash(state);
        self.maps.hash(state);
    }
}

impl fmt::Debug for LogRecord {
    /// The same output as a `#[derive(Debug)]` over the six components.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.peek_maps(|input, output| {
            f.debug_struct("LogRecord")
                .field("lsn", &self.lsn)
                .field("wid", &self.wid)
                .field("is_lsn", &self.is_lsn)
                .field("activity", &self.activity)
                .field("input", input)
                .field("output", output)
                .finish()
        })
    }
}

impl fmt::Display for LogRecord {
    /// One line of the paper's Figure 3 table:
    /// `lsn | wid | is-lsn | activity | αin | αout`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.peek_maps(|input, output| {
            write!(
                f,
                "{} | {} | {} | {} | {input} | {output}",
                self.lsn, self.wid, self.is_lsn, self.activity
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs;

    #[test]
    fn accessors_extract_all_components() {
        let l = LogRecord::new(
            4u64,
            1u64,
            3u32,
            "CheckIn",
            attrs! { "referId" => "034d1" },
            attrs! { "referState" => "active" },
        );
        assert_eq!(l.lsn(), Lsn(4));
        assert_eq!(l.wid(), Wid(1));
        assert_eq!(l.is_lsn(), IsLsn(3));
        assert_eq!(l.activity().as_str(), "CheckIn");
        assert_eq!(l.input().len(), 1);
        assert_eq!(l.output().len(), 1);
    }

    #[test]
    fn start_records_have_is_lsn_one_and_empty_maps() {
        let s = LogRecord::start(1u64, 7u64);
        assert!(s.is_start());
        assert!(!s.is_end());
        assert_eq!(s.is_lsn(), IsLsn::FIRST);
        assert!(s.input().is_empty());
        assert!(s.output().is_empty());
    }

    #[test]
    fn end_records_are_detected() {
        let e = LogRecord::end(9u64, 7u64, 5u32);
        assert!(e.is_end());
        assert!(!e.is_start());
        assert!(e.input().is_empty());
    }

    #[test]
    fn is_lsn_next_increments() {
        assert_eq!(IsLsn(1).next(), IsLsn(2));
        assert_eq!(IsLsn::FIRST.next().next(), IsLsn(3));
    }

    #[test]
    fn display_matches_figure3_layout() {
        let l = LogRecord::new(
            4u64,
            1u64,
            3u32,
            "CheckIn",
            attrs! { "balance" => 1000i64 },
            AttrMap::new(),
        );
        assert_eq!(l.to_string(), "4 | 1 | 3 | CheckIn | balance=1000 | -");
    }

    #[test]
    fn id_types_convert_and_display() {
        let lsn: Lsn = 42u64.into();
        assert_eq!(u64::from(lsn), 42);
        assert_eq!(lsn.to_string(), "42");
        assert_eq!(Wid(3).get(), 3);
        assert_eq!(IsLsn(2).get(), 2);
    }
}
