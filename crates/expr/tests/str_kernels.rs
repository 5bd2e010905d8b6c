//! Seeded property test of the per-entry string kernels: `=`, `<`,
//! `LIKE`, `IN` and `SUBSTR` over dictionary-coded columns, through
//! [`eval`] (per entry when the dictionary is no larger than the batch,
//! per row otherwise) and through a [`CompiledPredicate`] fed several
//! batches over one dictionary (verdicts memoized per entry), against a
//! per-row reference over `Option<String>`s. Windows over small and large
//! dictionaries, with NULLs. 300 cases with optimizations, 30 without.

use rdb_expr::like::like_match;
use rdb_expr::{eval, CompiledPredicate, Expr};
use rdb_vector::{Batch, Column, ColumnBuilder, DataType, Value};

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

const WORDS: [&str; 8] = ["", "a", "ab", "abc", "héllo", "日本語", "b", "PROMO x"];

/// String `k` of a domain built from [`WORDS`].
fn string(k: u64) -> String {
    let w = WORDS[(k % WORDS.len() as u64) as usize];
    match k / WORDS.len() as u64 {
        0 => w.to_string(),
        n => format!("{w}{n}"),
    }
}

/// One predicate or projection over column 0, and its per-row reference
/// (`None`: NULL).
enum Kernel {
    Pred(Expr, Box<dyn Fn(&str) -> bool>),
    Substr(usize, usize),
}

fn kernel(rng: &mut Rng) -> Kernel {
    let lit = string(rng.below(30));
    let l = lit.clone();
    match rng.below(7) {
        0 => Kernel::Pred(
            Expr::col(0).eq(Expr::lit(Value::str(&lit))),
            Box::new(move |s| s == l),
        ),
        1 => Kernel::Pred(
            Expr::col(0).lt(Expr::lit(Value::str(&lit))),
            Box::new(move |s| s < l.as_str()),
        ),
        2 => Kernel::Pred(
            Expr::lit(Value::str(&lit)).le(Expr::col(0)),
            Box::new(move |s| l.as_str() <= s),
        ),
        3 => {
            let pattern =
                ["%b%", "a_", "_", "%語", "h_llo%", "%", "PROMO%", "__"][rng.below(8) as usize];
            let negated = rng.chance(30);
            let e = if negated {
                Expr::col(0).not_like(pattern)
            } else {
                Expr::col(0).like(pattern)
            };
            Kernel::Pred(e, Box::new(move |s| like_match(s, pattern) != negated))
        }
        4 => {
            let list: Vec<String> = (0..1 + rng.below(4))
                .map(|_| string(rng.below(30)))
                .collect();
            let negated = rng.chance(30);
            let values: Vec<Value> = list
                .iter()
                .map(Value::str)
                // A non-string element never matches a string cell.
                .chain([Value::Int(1)])
                .collect();
            let e = if negated {
                Expr::col(0).not_in_list(values)
            } else {
                Expr::col(0).in_list(values)
            };
            Kernel::Pred(e, Box::new(move |s| list.iter().any(|l| l == s) != negated))
        }
        _ => Kernel::Substr(rng.below(5) as usize, rng.below(4) as usize),
    }
}

/// Characters `start..start + len` (1-based), clamped.
fn substr_reference(s: &str, start: usize, len: usize) -> String {
    s.chars().skip(start.saturating_sub(1)).take(len).collect()
}

fn build(cells: &[Option<String>]) -> Column {
    let mut b = ColumnBuilder::new(DataType::Str, cells.len());
    for c in cells {
        match c {
            Some(s) => b.push_str(s),
            None => b.push_null(),
        }
    }
    b.finish()
}

#[test]
fn per_entry_kernels_match_per_row_reference() {
    let cases = if cfg!(debug_assertions) { 30 } else { 300 };
    for case in 0..cases {
        let mut rng = Rng(0x5717_0000 + case);
        let what = format!("case {case}");
        let domain = [3, 30, 5000][rng.below(3) as usize];
        let null_pct = [0, 10, 50][rng.below(3) as usize];
        let n = 1 + rng.below(2000) as usize;
        let cells: Vec<Option<String>> = (0..n)
            .map(|_| (!rng.chance(null_pct)).then(|| string(rng.below(domain))))
            .collect();
        let col = build(&cells);
        // Batches over windows of the one column: they share its
        // dictionary, which is larger than a small window.
        let mut windows = Vec::new();
        let mut at = 0;
        while at < n {
            let len = (1 + rng.below(300) as usize).min(n - at);
            windows.push((at, len));
            at += len;
        }
        match kernel(&mut rng) {
            Kernel::Pred(e, test) => {
                let mut compiled = CompiledPredicate::compile(&e);
                for &(off, len) in &windows {
                    let batch = Batch::new(vec![col.slice(off, len)]);
                    let want: Vec<bool> = cells[off..off + len]
                        .iter()
                        .map(|c| c.as_deref().is_some_and(&test))
                        .collect();
                    let got = eval(&e, &batch);
                    let got: Vec<bool> = (0..len)
                        .map(|i| got.is_valid(i) && got.as_bools()[i])
                        .collect();
                    assert_eq!(got, want, "{what}: eval {e:?} over [{off}, +{len})");
                    let mut sel = Vec::new();
                    compiled.select_into(&batch, &mut sel);
                    let want_sel: Vec<u32> =
                        (0..len as u32).filter(|&i| want[i as usize]).collect();
                    assert_eq!(sel, want_sel, "{what}: compiled {e:?} over [{off}, +{len})");
                }
            }
            Kernel::Substr(start, len) => {
                let e = Expr::col(0).substr(start.max(1), len);
                for &(off, wlen) in &windows {
                    let batch = Batch::new(vec![col.slice(off, wlen)]);
                    let got = eval(&e, &batch);
                    for (i, c) in cells[off..off + wlen].iter().enumerate() {
                        assert_eq!(got.is_valid(i), c.is_some(), "{what}: substr validity");
                        if let Some(s) = c {
                            assert_eq!(
                                got.as_strs().get(i),
                                substr_reference(s, start.max(1), len),
                                "{what}: substr({s:?}, {start}, {len})"
                            );
                        }
                    }
                }
            }
        }
    }
}
