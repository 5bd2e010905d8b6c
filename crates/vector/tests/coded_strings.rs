//! Seeded property test of dictionary-coded string columns against a
//! `Vec<Option<String>>` reference: gathers (`take`, `filter`, `slice`),
//! `concat` over shared and distinct dictionaries, key equality and
//! hashing across dictionaries, `cmp_cell` order, dictionary compaction
//! and `size_bytes` accounting. 300 cases with optimizations, 30 without.

use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;

use rdb_vector::row::cmp_cell;
use rdb_vector::{hash_columns, key_rows_eq, Column, ColumnBuilder, ColumnSlice, DataType};

type Reference = Vec<Option<String>>;

/// SplitMix64: a small seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// String `k` of a domain: empty, prefixes of each other, multi-byte.
fn string(k: u64) -> String {
    const STEMS: [&str; 6] = ["", "a", "ab", "é", "日本", "zz"];
    let stem = STEMS[(k % STEMS.len() as u64) as usize];
    match k / STEMS.len() as u64 {
        0 => stem.to_string(),
        n => format!("{stem}{n}"),
    }
}

/// `n` cells over a domain of `domain` strings, `null_pct` % NULL.
fn reference(rng: &mut Rng, n: usize, domain: u64, null_pct: u64) -> Reference {
    (0..n)
        .map(|_| (!rng.chance(null_pct)).then(|| string(rng.below(domain))))
        .collect()
}

fn build(cells: &Reference) -> Column {
    let mut b = ColumnBuilder::new(DataType::Str, cells.len());
    for c in cells {
        match c {
            Some(s) => b.push_str(s),
            None => b.push_null(),
        }
    }
    b.finish()
}

/// `col` holds exactly `want`, every code indexes its dictionary, and the
/// dictionary's entries are distinct.
fn check(col: &Column, want: &Reference, what: &str) {
    assert_eq!(col.len(), want.len(), "{what}: length");
    let s = col.as_strs();
    let dict = s.dict();
    assert!(
        s.codes().iter().all(|&c| (c as usize) < dict.len()),
        "{what}: code out of range"
    );
    let entries: HashSet<&str> = dict.iter().collect();
    assert_eq!(entries.len(), dict.len(), "{what}: duplicate entries");
    for (i, w) in want.iter().enumerate() {
        assert_eq!(col.is_valid(i), w.is_some(), "{what}: validity of row {i}");
        if let Some(w) = w {
            assert_eq!(s.get(i), w, "{what}: row {i}");
        }
    }
    // Accounting: a code per row and at least the bytes of every string
    // a valid row references.
    let referenced: HashSet<&str> = want.iter().flatten().map(String::as_str).collect();
    let bytes: usize = referenced.iter().map(|s| s.len()).sum();
    assert!(
        col.size_bytes() >= 4 * col.len() + bytes,
        "{what}: size_bytes {} under-counts",
        col.size_bytes()
    );
    assert!(
        col.stream_bytes() <= col.size_bytes(),
        "{what}: stream bytes"
    );
}

fn same_dict(a: &Column, b: &Column) -> bool {
    Arc::ptr_eq(a.dict().unwrap(), b.dict().unwrap())
}

fn reference_cmp(a: &Option<String>, b: &Option<String>) -> Ordering {
    // NULL first, strings by bytes: what `Option`'s order is.
    a.cmp(b)
}

#[test]
fn coded_columns_match_the_reference() {
    let cases = if cfg!(debug_assertions) { 30 } else { 300 };
    for case in 0..cases {
        let mut rng = Rng(0xc0de_0000 + case);
        let what = format!("case {case}");
        // Small and large dictionaries relative to the rows.
        let domain = [2, 8, 64, 4000][rng.below(4) as usize];
        let null_pct = [0, 5, 40][rng.below(3) as usize];
        let n = rng.below(400) as usize;
        let ref_a = reference(&mut rng, n, domain, null_pct);
        let a = build(&ref_a);
        check(&a, &ref_a, &format!("{what} built"));

        // take: new codes over the same dictionary.
        let idx: Vec<u32> = (0..rng.below(300))
            .filter(|_| n > 0)
            .map(|_| rng.below(n as u64) as u32)
            .collect();
        let taken = a.take(&idx);
        let ref_taken: Reference = idx.iter().map(|&i| ref_a[i as usize].clone()).collect();
        check(&taken, &ref_taken, &format!("{what} take"));
        assert!(same_dict(&taken, &a), "{what}: take shares the dictionary");

        // filter.
        let mask: Vec<bool> = (0..n).map(|_| rng.chance(50)).collect();
        let filtered = a.filter(&mask);
        let want: Reference = ref_a
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(c, _)| c.clone())
            .collect();
        check(&filtered, &want, &format!("{what} filter"));
        assert!(
            same_dict(&filtered, &a),
            "{what}: filter shares the dictionary"
        );

        // slice: a window over shared storage.
        let off = rng.below(n as u64 + 1) as usize;
        let len = rng.below((n - off) as u64 + 1) as usize;
        let window = a.slice(off, len);
        let ref_window: Reference = ref_a[off..off + len].to_vec();
        check(&window, &ref_window, &format!("{what} slice"));
        assert!(window.shares_storage(&a), "{what}: slice shares storage");

        // concat of columns sharing one dictionary: codes only.
        let shared = Column::concat(&[&window, &taken]);
        let want: Reference = ref_window.iter().chain(&ref_taken).cloned().collect();
        check(&shared, &want, &format!("{what} concat shared"));
        assert!(
            shared.is_empty() || same_dict(&shared, &a),
            "{what}: shared concat keeps the dictionary"
        );

        // concat over distinct dictionaries: a merged dictionary.
        let len_b = rng.below(300) as usize;
        let ref_b = reference(&mut rng, len_b, domain, null_pct);
        let b = build(&ref_b);
        let merged = Column::concat(&[&window, &b, &a]);
        let want: Reference = ref_window
            .iter()
            .chain(&ref_b)
            .chain(&ref_a)
            .cloned()
            .collect();
        check(&merged, &want, &format!("{what} concat distinct"));

        // Compaction keeps the rows and at most one entry per row.
        let compact = window.compact_dict();
        check(&compact, &ref_window, &format!("{what} compact"));
        assert!(
            compact.dict().unwrap().len() <= window.len(),
            "{what}: compacted dictionary"
        );

        // Key equality is string equality (NULL = NULL) and implies equal
        // hashes, across dictionaries; cmp_cell orders by bytes, NULL
        // first.
        let (mut ha, mut hb) = (Vec::new(), Vec::new());
        hash_columns(&[&window], window.len(), &mut ha);
        hash_columns(&[&b], b.len(), &mut hb);
        for _ in 0..200 {
            if window.is_empty() || b.is_empty() {
                break;
            }
            let i = rng.below(window.len() as u64) as usize;
            let j = rng.below(b.len() as u64) as usize;
            let eq = key_rows_eq(&[&window], i, &[&b], j);
            assert_eq!(
                eq,
                ref_window[i] == ref_b[j],
                "{what}: key equality {i},{j}"
            );
            if eq {
                assert_eq!(ha[i], hb[j], "{what}: equal keys hash equally");
            }
            assert_eq!(
                cmp_cell(&window, i, &b, j),
                reference_cmp(&ref_window[i], &ref_b[j]),
                "{what}: cmp_cell {i},{j}"
            );
        }
        // Logical equality ignores dictionaries and NULL payloads.
        assert_eq!(window, build(&ref_window), "{what}: logical equality");
        assert!(matches!(window.values(), ColumnSlice::Str(_)));
    }
}
