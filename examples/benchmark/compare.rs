//! `benchmark compare <a.jsonl> <b.jsonl>`: the regression gate.
//!
//! Each file holds the records `--out` appended, one JSON object per run.
//! Runs are grouped by (workload, metric); the comparison is between the
//! medians of the two files, and every ratio is printed with its base and
//! with each side's spread (the distance between the quartiles of its
//! runs as a share of their median). Flagged, with a non-zero exit: an
//! end-to-end metric that got worse by more than its bound, an exact
//! count that differs between two runs of the same seed — within a file
//! or between them — and a workload or metric only one file has. A metric
//! within its bound whose spread is wider than the bound reads
//! `unresolved`, not `ok`. Comparing a file with itself shows how steady
//! its runs are.

use std::collections::{BTreeMap, BTreeSet};

use crate::ledger::{self, Better};
use crate::measure::median;

// ---------------------------------------------------------------------------
// A reader for the benchmark's own records
// ---------------------------------------------------------------------------

/// What `--out` writes: objects of numbers, booleans, strings without
/// escapes, and further objects. Not a general JSON reader.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let rest = &self.bytes[self.at..];
        let len = rest
            .iter()
            .position(|b| *b == b'"')
            .ok_or("unterminated string")?;
        if rest[..len].contains(&b'\\') {
            return Err(format!("escape in the string at byte {}", self.at));
        }
        self.at += len + 1;
        String::from_utf8(rest[..len].to_vec()).map_err(|e| e.to_string())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at).ok_or("unexpected end of input")? {
            b'{' => {
                self.at += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.at == p.bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.at))
    }
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// (workload, metric) → (seed, value) of every run in one file.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse_json(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let field = |v: &Json, key: &str| -> Result<Json, String> {
            v.get(key)
                .cloned()
                .ok_or_else(|| format!("{path}:{}: no \"{key}\"", n + 1))
        };
        let workload = field(&record, "workload")?
            .as_str()
            .unwrap_or_default()
            .to_string();
        let seed = field(&record, "seed")?
            .as_f64()
            .ok_or_else(|| format!("{path}:{}: \"seed\" is not a number", n + 1))?
            as u64;
        let result = field(&record, "result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!(
                "{path}:{}: run of {workload} was not correct",
                n + 1
            ));
        }
        let Json::Obj(metrics) = field(&result, "metrics")? else {
            return Err(format!("{path}:{}: \"metrics\" is not an object", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}:{}: metric {name} has no value", n + 1))?;
            runs.entry((workload.clone(), name))
                .or_default()
                .push((seed, value));
        }
    }
    Ok(runs)
}

/// The distance between the first and third quartile of `values` as a
/// share of their median, the quartiles as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method):
/// the builder's acceptance rule. `None` below two values.
fn spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| -> f64 {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (cut(3) - cut(1)) / mid.abs())
}

/// Whether every seed's runs, of both files together, read the same.
fn repeats_exactly(a: &[(u64, f64)], b: &[(u64, f64)]) -> bool {
    let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
    a.iter()
        .chain(b)
        .all(|(seed, value)| *by_seed.entry(*seed).or_insert(*value) == *value)
}

/// Compare two result files; `Ok(true)` when nothing is flagged.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut clean = true;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "base (a)", "new (b)", "b/a", "bound", "iqr/med a", "iqr/med b"
    );
    let keys: BTreeSet<&(String, String)> = a.keys().chain(b.keys()).collect();
    for key in keys {
        let (workload, name) = key;
        let (Some(base_runs), Some(new_runs)) = (a.get(key), b.get(key)) else {
            let absent = if a.contains_key(key) { b_path } else { a_path };
            println!("{workload:<14} {name:<28} MISSING from {absent}");
            clean = false;
            continue;
        };
        let values = |runs: &[(u64, f64)]| -> Vec<f64> { runs.iter().map(|(_, v)| *v).collect() };
        let (base_values, new_values) = (values(base_runs), values(new_runs));
        let (base, new) = (median(&base_values), median(&new_values));
        let (base_spread, new_spread) = (spread(&base_values), spread(&new_values));
        let ratio = if base == 0.0 { f64::NAN } else { new / base };
        let metric = ledger::find(name);
        let verdict = match metric {
            Some(m) if m.exact => {
                if repeats_exactly(base_runs, new_runs) {
                    "exact".to_string()
                } else {
                    clean = false;
                    format!("DIFFERS (must repeat exactly per seed: {base_runs:?} vs {new_runs:?})")
                }
            }
            Some(m) => match m.bound {
                Some(bound) => {
                    let worse = match m.better {
                        Better::Lower => (new - base) / base,
                        Better::Higher => (base - new) / base,
                    };
                    // Set-up time is gated on its median only.
                    let wide = name != "setup_s"
                        && [base_spread, new_spread]
                            .iter()
                            .flatten()
                            .any(|s| *s > bound);
                    if worse > bound {
                        clean = false;
                        format!("WORSE by {:.1}%", worse * 100.0)
                    } else if wide {
                        "unresolved (spread wider than the bound)".to_string()
                    } else {
                        "ok".to_string()
                    }
                }
                None => "-".to_string(),
            },
            None => "unknown metric".to_string(),
        };
        let bound = metric
            .and_then(|m| m.bound)
            .map_or(String::new(), |b| format!("{b:.2}"));
        let share = |s: Option<f64>| s.map_or(String::new(), |s| format!("{s:.3}"));
        println!(
            "{workload:<14} {name:<28} {base:>14.4} {new:>14.4} {ratio:>8.3} {bound:>7} {:>8} {:>8}  {verdict} (n={}/{})",
            share(base_spread),
            share(new_spread),
            base_runs.len(),
            new_runs.len()
        );
    }
    Ok(clean)
}
