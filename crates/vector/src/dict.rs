//! String dictionaries: the payload of every string column.
//!
//! A string column stores one `u32` code per row and an `Arc`-shared
//! [`StrDict`]: the distinct strings, each once, as one contiguous byte
//! buffer with an end offset and a precomputed content hash per entry.
//! Entries are unique within one dictionary, so two codes of the same
//! dictionary are equal exactly when their strings are. Every code of a
//! column indexes an entry of its dictionary, NULL rows included (their
//! entry is unspecified and must not be read as a value).
//!
//! [`DictBuilder`] interns strings into a growing dictionary and is how
//! every dictionary is made: by the column builder, by the string kernels
//! of `rdb_expr`, and by the hash aggregate's table-owned keys.
//! [`Recoder`] interns the entries of other dictionaries into one by
//! code, once per distinct source dictionary.

use std::fmt;
use std::sync::Arc;

use crate::hash::str_hash;

/// No entry: an empty slot of the intern table.
const EMPTY: u32 = u32::MAX;

/// An immutable dictionary of distinct strings (see the module docs).
#[derive(Default)]
pub struct StrDict {
    bytes: String,
    /// End offset of entry `i` in `bytes` (entry `i` starts where `i - 1`
    /// ends).
    ends: Vec<u32>,
    /// Content hash of entry `i` ([`str_hash`]).
    hashes: Vec<u64>,
}

impl StrDict {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the dictionary has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Entry `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let i = code as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.bytes[start..self.ends[i] as usize]
    }

    /// Content hash of entry `code`: equal strings hash equally in every
    /// dictionary.
    #[inline]
    pub fn hash(&self, code: u32) -> u64 {
        self.hashes[code as usize]
    }

    /// The entries in code order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        (0..self.len() as u32).map(|c| self.get(c))
    }

    /// Bytes held: the string bytes plus 4 B of offset and 8 B of hash
    /// per entry.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len() + 12 * self.ends.len()
    }

    fn push(&mut self, s: &str, h: u64) -> u32 {
        let code = self.ends.len() as u32;
        assert!(code < EMPTY, "at most {EMPTY} dictionary entries");
        self.bytes.push_str(s);
        let end = u32::try_from(self.bytes.len()).expect("dictionary bytes fit in u32");
        self.ends.push(end);
        self.hashes.push(h);
        code
    }
}

impl fmt::Debug for StrDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Interns strings into a growing [`StrDict`]: equal strings get one
/// code, the first one they were given.
#[derive(Default)]
pub struct DictBuilder {
    dict: StrDict,
    /// Open-addressing table of codes, linear probing; a power of two
    /// at least twice the entry count (empty until the first intern).
    slots: Vec<u32>,
}

impl DictBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        DictBuilder::default()
    }

    /// Number of entries interned so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.dict.len()
    }

    /// Whether nothing has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.dict.is_empty()
    }

    /// Entry `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        self.dict.get(code)
    }

    /// The dictionary interned so far.
    pub fn dict(&self) -> &StrDict {
        &self.dict
    }

    /// The code of `s`, interning it if it is new.
    #[inline]
    pub fn intern(&mut self, s: &str) -> u32 {
        self.intern_hashed(s, str_hash(s))
    }

    /// [`DictBuilder::intern`] with `s`'s content hash already known
    /// (`h` must be [`str_hash`]`(s)`, e.g. [`StrDict::hash`] of another
    /// dictionary's entry).
    pub fn intern_hashed(&mut self, s: &str, h: u64) -> u32 {
        if 2 * (self.dict.len() + 1) > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut at = slot_of(h, mask);
        loop {
            let code = self.slots[at];
            if code == EMPTY {
                let code = self.dict.push(s, h);
                self.slots[at] = code;
                return code;
            }
            if self.dict.hash(code) == h && self.dict.get(code) == s {
                return code;
            }
            at = (at + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let size = (2 * (self.dict.len() + 1)).next_power_of_two().max(16) * 2;
        self.slots.clear();
        self.slots.resize(size, EMPTY);
        let mask = size - 1;
        for code in 0..self.dict.len() as u32 {
            let mut at = slot_of(self.dict.hash(code), mask);
            while self.slots[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.slots[at] = code;
        }
    }

    /// The finished dictionary of a column of `rows` codes: with one
    /// entry at least when there are rows, for a NULL row's code 0 to
    /// index.
    pub fn finish_for(mut self, rows: usize) -> Arc<StrDict> {
        if rows > 0 && self.is_empty() {
            self.intern("");
        }
        self.finish()
    }

    /// The finished dictionary (the intern table is dropped).
    pub fn finish(self) -> Arc<StrDict> {
        let mut dict = self.dict;
        dict.bytes.shrink_to_fit();
        dict.ends.shrink_to_fit();
        dict.hashes.shrink_to_fit();
        Arc::new(dict)
    }
}

impl fmt::Debug for DictBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.dict.fmt(f)
    }
}

/// Source dictionaries a [`Recoder`] keeps the code maps of.
const MAPS: usize = 8;

/// A [`DictBuilder`] fed by code from other dictionaries: for each of the
/// last few source dictionaries it keeps the code here of each of its
/// entries (filled the first time a row references the entry), so a
/// source string is hashed and interned once per distinct dictionary
/// `Arc`, not once per row.
#[derive(Debug, Default)]
pub struct Recoder {
    dict: DictBuilder,
    maps: Vec<(Arc<StrDict>, Vec<u32>)>,
}

impl Recoder {
    /// The dictionary interned so far.
    pub fn dict(&self) -> &DictBuilder {
        &self.dict
    }

    /// Intern a string directly ([`DictBuilder::intern`]).
    pub fn intern(&mut self, s: &str) -> u32 {
        self.dict.intern(s)
    }

    /// Intern a string directly ([`DictBuilder::intern_hashed`]).
    pub fn intern_hashed(&mut self, s: &str, h: u64) -> u32 {
        self.dict.intern_hashed(s, h)
    }

    /// Codes of `from` as codes here. Keeping `from`'s map costs 4 B per
    /// entry of `from`, once.
    pub fn of<'a>(&'a mut self, from: &'a Arc<StrDict>) -> Recode<'a> {
        let at = match self.maps.iter().position(|(d, _)| Arc::ptr_eq(d, from)) {
            Some(at) => at,
            None => {
                if self.maps.len() == MAPS {
                    self.maps.remove(0);
                }
                self.maps.push((from.clone(), vec![EMPTY; from.len()]));
                self.maps.len() - 1
            }
        };
        Recode {
            dict: &mut self.dict,
            map: &mut self.maps[at].1,
            from,
        }
    }

    /// [`DictBuilder::finish_for`] of the interned dictionary.
    pub fn finish_for(self, rows: usize) -> Arc<StrDict> {
        self.dict.finish_for(rows)
    }
}

/// [`Recoder::of`]: one source dictionary's codes as codes of the
/// recoder's dictionary.
pub struct Recode<'a> {
    dict: &'a mut DictBuilder,
    map: &'a mut [u32],
    from: &'a StrDict,
}

impl Recode<'_> {
    /// The code here of source code `c`, interning its string once.
    #[inline]
    pub fn code(&mut self, c: u32) -> u32 {
        let m = &mut self.map[c as usize];
        if *m == EMPTY {
            *m = self.dict.intern_hashed(self.from.get(c), self.from.hash(c));
        }
        *m
    }

    /// Entry `here` of the recoder's dictionary.
    #[inline]
    pub fn get(&self, here: u32) -> &str {
        self.dict.get(here)
    }
}

#[inline]
fn slot_of(h: u64, mask: usize) -> usize {
    (h.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_gives_equal_strings_one_code() {
        let mut b = DictBuilder::new();
        let words = ["b", "", "a", "b", "héllo", "", "a"];
        let codes: Vec<u32> = words.iter().map(|w| b.intern(w)).collect();
        assert_eq!(codes, vec![0, 1, 2, 0, 3, 1, 2]);
        let d = b.finish();
        assert_eq!(d.len(), 4);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec!["b", "", "a", "héllo"]);
        assert_eq!(d.hash(3), str_hash("héllo"));
        assert_eq!(d.size_bytes(), 1 + 1 + 6 + 4 * 12);
    }
}
