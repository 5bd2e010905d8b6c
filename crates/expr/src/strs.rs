//! String kernels over dictionary-coded columns.
//!
//! A string column is codes over a dictionary of distinct entries
//! ([`rdb_vector::StrDict`]), so a string kernel — a comparison with a
//! literal, `LIKE`, `IN`, `SUBSTR` — can run once per dictionary entry and
//! be mapped through the codes. That is no more work than running it once
//! per row only when the dictionary has no more entries than the rows at
//! hand, or when the per-entry results outlive the batch:
//!
//! * [`test_rows`] and [`substr_column`] (what [`crate::eval::eval`] runs)
//!   decide per batch: per entry when the dictionary has at most as many
//!   entries as the batch has rows, per row otherwise (a 1,024-row morsel
//!   over a 30,000-entry comment dictionary);
//! * a compiled predicate ([`crate::sel::CompiledPredicate`]) keeps an
//!   [`EntryMemo`]: each entry's verdict, computed the first time a row
//!   references it and reused by every later row and morsel over the same
//!   dictionary, so it never runs more often than per row either.
//!
//! Positions in `SUBSTR` and the `_` of `LIKE` count characters, not
//! bytes.

use std::sync::Arc;

use rdb_vector::column::{Column, ColumnData, StrSlice};
use rdb_vector::{DictBuilder, StrDict, Value};

use crate::expr::CmpOp;
use crate::like::like_match;

/// A boolean test of one string.
#[derive(Debug, Clone)]
pub(crate) enum StrTest {
    /// `s <op> literal`, in byte order.
    Cmp(CmpOp, Arc<str>),
    /// `s [NOT] LIKE pattern`.
    Like { pattern: String, negated: bool },
    /// `s [NOT] IN (list)`: only the list's string elements can match.
    In { list: Vec<Arc<str>>, negated: bool },
}

impl StrTest {
    /// `s [NOT] IN list`, keeping the list's string elements.
    pub(crate) fn in_list(list: &[Value], negated: bool) -> StrTest {
        let list = list
            .iter()
            .filter_map(|v| match v {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        StrTest::In { list, negated }
    }

    /// The verdict for `s`.
    #[inline]
    pub(crate) fn test(&self, s: &str) -> bool {
        match self {
            StrTest::Cmp(op, lit) => op.test(s.cmp(lit)),
            StrTest::Like { pattern, negated } => like_match(s, pattern) != *negated,
            StrTest::In { list, negated } => list.iter().any(|l| **l == *s) != *negated,
        }
    }
}

/// `test` of every row's string (NULL rows included: the caller masks
/// them), once per dictionary entry when the dictionary has no more
/// entries than `s` has rows, once per row otherwise.
pub(crate) fn test_rows(s: StrSlice<'_>, test: impl Fn(&str) -> bool) -> Vec<bool> {
    if s.dict().len() <= s.len() {
        let per_entry: Vec<bool> = s.dict().iter().map(test).collect();
        s.codes().iter().map(|&c| per_entry[c as usize]).collect()
    } else {
        s.iter().map(test).collect()
    }
}

/// `SUBSTR(c, start, len)` over a string column: a new dictionary of the
/// distinct substrings, computed once per entry or once per row by the
/// rule of [`test_rows`]. Validity is carried over.
pub(crate) fn substr_column(c: &Column, start: usize, len: usize) -> Column {
    let s = c.as_strs();
    let mut dict = DictBuilder::new();
    let codes: Vec<u32> = if s.dict().len() <= s.len() {
        let map: Vec<u32> = s
            .dict()
            .iter()
            .map(|e| dict.intern(substr(e, start, len)))
            .collect();
        s.codes().iter().map(|&c| map[c as usize]).collect()
    } else {
        s.iter()
            .map(|e| dict.intern(substr(e, start, len)))
            .collect()
    };
    let data = ColumnData::coded(codes, dict.finish());
    match c.validity() {
        None => Column::new(data),
        Some(m) => Column::with_validity(data, m.to_vec()),
    }
}

/// The `len` characters of `s` from 1-based character position `start`,
/// clamped to the string.
pub(crate) fn substr(s: &str, start: usize, len: usize) -> &str {
    let skip = start.saturating_sub(1);
    if s.is_ascii() {
        let from = skip.min(s.len());
        return &s[from..(from + len).min(s.len())];
    }
    let at = |n: usize| s.char_indices().nth(n).map_or(s.len(), |(i, _)| i);
    let from = at(skip);
    let to = from
        + s[from..]
            .char_indices()
            .nth(len)
            .map_or(s.len() - from, |(i, _)| i);
    &s[from..to]
}

/// Per-entry verdicts of one test over the dictionary last seen, filled
/// the first time a row references an entry (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct EntryMemo {
    dict: Option<Arc<StrDict>>,
    /// 0 = not yet tested, 1 = false, 2 = true; one per entry.
    verdicts: Vec<u8>,
}

impl EntryMemo {
    /// The verdicts for `dict`'s entries, reset when `dict` is not the
    /// dictionary they were kept for.
    pub(crate) fn over(&mut self, dict: &Arc<StrDict>) -> Verdicts<'_> {
        if !self.dict.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict)) {
            self.dict = Some(dict.clone());
            self.verdicts.clear();
            self.verdicts.resize(dict.len(), 0);
        }
        Verdicts {
            dict: self.dict.as_deref().expect("set just above"),
            verdicts: &mut self.verdicts,
        }
    }
}

/// [`EntryMemo`]'s verdicts over one dictionary.
pub(crate) struct Verdicts<'a> {
    dict: &'a StrDict,
    verdicts: &'a mut [u8],
}

impl Verdicts<'_> {
    /// `test` of entry `code`, computed once.
    #[inline]
    pub(crate) fn get(&mut self, code: u32, test: &StrTest) -> bool {
        let v = &mut self.verdicts[code as usize];
        if *v == 0 {
            *v = 1 + test.test(self.dict.get(code)) as u8;
        }
        *v == 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substr_counts_characters() {
        assert_eq!(substr("héllo", 2, 2), "él");
        assert_eq!(substr("héllo", 1, 10), "héllo");
        assert_eq!(substr("héllo", 5, 3), "o");
        assert_eq!(substr("héllo", 6, 3), "");
        assert_eq!(substr("héllo", 9, 3), "");
        assert_eq!(substr("日本語", 3, 1), "語");
        assert_eq!(substr("abc", 0, 2), "ab");
        assert_eq!(substr("abc", 2, 0), "");
        assert_eq!(substr("", 1, 2), "");
    }

    #[test]
    fn memo_tests_each_entry_once_per_dictionary() {
        let c = Column::from_strs(["ab", "cd", "ab"]);
        let s = c.as_strs();
        let mut memo = EntryMemo::default();
        let test = StrTest::Like {
            pattern: "a%".into(),
            negated: false,
        };
        let mut v = memo.over(s.dict());
        let got: Vec<bool> = s.codes().iter().map(|&k| v.get(k, &test)).collect();
        assert_eq!(got, vec![true, false, true]);
        assert_eq!(memo.verdicts, vec![2, 1]);
        // Another dictionary resets the verdicts.
        let d = Column::from_strs(["cd"]);
        let mut v = memo.over(d.dict().unwrap());
        assert!(!v.get(0, &test));
        assert_eq!(memo.verdicts, vec![1]);
    }
}
