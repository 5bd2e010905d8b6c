//! Binary encoding of log records, plans, and lineage.
//!
//! Hand-rolled little-endian encoding — no serde in the dependency
//! closure — with a defensive `Reader`: every length is bounds-checked
//! and every tag validated, so a corrupted payload that survived the CRC
//! (or a truncated checkpoint) produces [`WalError::Corrupt`], never a
//! panic or an absurd allocation.
//!
//! Strings are `u32`-length-prefixed UTF-8; collections are
//! `u32`-count-prefixed; values, expressions, and plan nodes carry a
//! leading `u8` tag.

use rdb_expr::{AggFunc, ArithOp, CmpOp, Expr};
use rdb_plan::{JoinKind, Plan, SortKeyExpr};
use rdb_recycler::LineageEntry;
use rdb_storage::{CommitRecord, TableDelta};
use rdb_vector::column::{Column, ColumnData, ColumnSlice};
use rdb_vector::{DataType, Schema, SortOrder, Value};

use crate::WalError;

fn corrupt(msg: impl Into<String>) -> WalError {
    WalError::Corrupt(msg.into())
}

// ---- writer ---------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---- reader ---------------------------------------------------------------

/// Bounds-checked cursor over a decoded payload.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt(format!(
                "payload underrun: wanted {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, WalError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, WalError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A collection count, sanity-bounded by the bytes actually left so a
    /// corrupt count cannot drive a huge allocation.
    pub(crate) fn count(&mut self) -> Result<usize, WalError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(corrupt(format!("count {n} exceeds remaining payload")));
        }
        Ok(n)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        self.take(n)
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn str_ref(&mut self) -> Result<&'a str, WalError> {
        let n = self.count()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("invalid UTF-8 string"))
    }

    pub(crate) fn str(&mut self) -> Result<String, WalError> {
        self.str_ref().map(str::to_string)
    }
}

// ---- values and schemas ---------------------------------------------------

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
        DataType::Date => 4,
    }
}

fn dtype_from(tag: u8) -> Result<DataType, WalError> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Str,
        4 => DataType::Date,
        t => return Err(corrupt(format!("unknown dtype tag {t}"))),
    })
}

pub(crate) fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, *b as u8);
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_i64(out, *i);
        }
        Value::Float(f) => {
            put_u8(out, 3);
            put_f64(out, *f);
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
        Value::Date(d) => {
            put_u8(out, 5);
            put_i32(out, *d);
        }
    }
}

pub(crate) fn read_value(r: &mut Reader) -> Result<Value, WalError> {
    Ok(match r.u8()? {
        0 => Value::Null,
        1 => Value::Bool(r.u8()? != 0),
        2 => Value::Int(r.i64()?),
        3 => Value::Float(r.f64()?),
        4 => Value::str(r.str()?),
        5 => Value::Date(r.i32()?),
        t => return Err(corrupt(format!("unknown value tag {t}"))),
    })
}

pub(crate) fn put_schema(out: &mut Vec<u8>, schema: &Schema) {
    put_u32(out, schema.len() as u32);
    for f in schema.fields() {
        put_str(out, &f.name);
        put_u8(out, dtype_tag(f.dtype));
    }
}

pub(crate) fn read_schema(r: &mut Reader) -> Result<Schema, WalError> {
    let n = r.count()?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let dt = dtype_from(r.u8()?)?;
        pairs.push((name, dt));
    }
    Ok(Schema::from_pairs(
        pairs.iter().map(|(n, t)| (n.as_str(), *t)),
    ))
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<Value>]) {
    put_u32(out, rows.len() as u32);
    for row in rows {
        put_u32(out, row.len() as u32);
        for v in row {
            put_value(out, v);
        }
    }
}

fn read_rows(r: &mut Reader) -> Result<Vec<Vec<Value>>, WalError> {
    let n = r.count()?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let arity = r.count()?;
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(read_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

// ---- columns --------------------------------------------------------------

pub(crate) fn put_dtype(out: &mut Vec<u8>, dt: DataType) {
    put_u8(out, dtype_tag(dt));
}

pub(crate) fn read_dtype(r: &mut Reader) -> Result<DataType, WalError> {
    dtype_from(r.u8()?)
}

/// Encode the rows of `col` as columns are stored: a validity flag, the
/// validity bytes if any row is NULL, then the payload straight from the
/// typed slice. No per-row tag, no [`Value`].
pub(crate) fn put_column(out: &mut Vec<u8>, col: &Column) {
    match col.validity() {
        Some(mask) if mask.contains(&false) => {
            put_u8(out, 1);
            out.extend(mask.iter().map(|&v| v as u8));
        }
        _ => put_u8(out, 0),
    }
    match col.values() {
        ColumnSlice::Bool(v) => out.extend(v.iter().map(|&b| b as u8)),
        ColumnSlice::Int(v) => v.iter().for_each(|&x| put_i64(out, x)),
        ColumnSlice::Float(v) => v.iter().for_each(|&x| put_f64(out, x)),
        ColumnSlice::Date(v) => v.iter().for_each(|&x| put_i32(out, x)),
        ColumnSlice::Str(v) => v.iter().for_each(|s| put_str(out, s)),
    }
}

/// Decode `rows` rows of a `dtype` column written by [`put_column`].
pub(crate) fn read_column(
    r: &mut Reader,
    dtype: DataType,
    rows: usize,
) -> Result<Column, WalError> {
    let validity = match r.u8()? {
        0 => None,
        1 => Some(r.take(rows)?.iter().map(|&b| b != 0).collect::<Vec<bool>>()),
        t => return Err(corrupt(format!("unknown validity flag {t}"))),
    };
    // `rows` values of `N` little-endian bytes each, bounds-checked by
    // `take` before anything is allocated.
    fn fixed<const N: usize, T>(
        r: &mut Reader,
        rows: usize,
        from: fn([u8; N]) -> T,
    ) -> Result<Vec<T>, WalError> {
        let bytes = rows
            .checked_mul(N)
            .ok_or_else(|| corrupt("column size overflows"))?;
        let values = r.take(bytes)?.chunks_exact(N);
        Ok(values.map(|b| from(b.try_into().unwrap())).collect())
    }
    let data = match dtype {
        DataType::Bool => ColumnData::bools(fixed(r, rows, |[b]: [u8; 1]| b != 0)?),
        DataType::Int => ColumnData::ints(fixed(r, rows, i64::from_le_bytes)?),
        DataType::Float => ColumnData::floats(fixed(r, rows, f64::from_le_bytes)?),
        DataType::Date => ColumnData::dates(fixed(r, rows, i32::from_le_bytes)?),
        DataType::Str => {
            // A string needs at least its length prefix.
            if rows > r.remaining() / 4 {
                return Err(corrupt(format!("{rows} strings exceed remaining payload")));
            }
            let strs = (0..rows).map(|_| r.str_ref().map(std::sync::Arc::from));
            ColumnData::strs(strs.collect::<Result<_, _>>()?)
        }
    };
    Ok(match validity {
        Some(mask) => Column::with_validity(data, mask),
        None => Column::new(data),
    })
}

// ---- commit records -------------------------------------------------------

/// Encode one commit record (a WAL frame payload).
pub fn encode_record(rec: &CommitRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    let kind = match &rec.delta {
        TableDelta::Append { .. } => 1u8,
        TableDelta::Delete { .. } => 2,
        TableDelta::Replace { .. } => 3,
    };
    put_u8(&mut out, kind);
    put_str(&mut out, &rec.table);
    put_u64(&mut out, rec.epoch);
    put_schema(&mut out, &rec.schema);
    match &rec.delta {
        TableDelta::Append { rows } | TableDelta::Replace { rows } => put_rows(&mut out, rows),
        TableDelta::Delete { deleted } => {
            put_u32(&mut out, deleted.len() as u32);
            for &i in deleted {
                put_u64(&mut out, i);
            }
        }
    }
    out
}

/// Decode one commit record from a frame payload.
pub fn decode_record(payload: &[u8]) -> Result<CommitRecord, WalError> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let table = r.str()?;
    let epoch = r.u64()?;
    let schema = read_schema(&mut r)?;
    let delta = match kind {
        1 => TableDelta::Append {
            rows: read_rows(&mut r)?,
        },
        3 => TableDelta::Replace {
            rows: read_rows(&mut r)?,
        },
        2 => {
            let n = r.count()?;
            let mut deleted = Vec::with_capacity(n);
            for _ in 0..n {
                deleted.push(r.u64()?);
            }
            TableDelta::Delete { deleted }
        }
        t => return Err(corrupt(format!("unknown record kind {t}"))),
    };
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after record"));
    }
    Ok(CommitRecord {
        table,
        schema,
        epoch,
        delta,
    })
}

// ---- expressions ----------------------------------------------------------

fn cmp_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    }
}

fn cmp_from(tag: u8) -> Result<CmpOp, WalError> {
    Ok(match tag {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        t => return Err(corrupt(format!("unknown cmp tag {t}"))),
    })
}

fn arith_tag(op: ArithOp) -> u8 {
    match op {
        ArithOp::Add => 0,
        ArithOp::Sub => 1,
        ArithOp::Mul => 2,
        ArithOp::Div => 3,
    }
}

fn arith_from(tag: u8) -> Result<ArithOp, WalError> {
    Ok(match tag {
        0 => ArithOp::Add,
        1 => ArithOp::Sub,
        2 => ArithOp::Mul,
        3 => ArithOp::Div,
        t => return Err(corrupt(format!("unknown arith tag {t}"))),
    })
}

fn put_exprs(out: &mut Vec<u8>, exprs: &[Expr]) {
    put_u32(out, exprs.len() as u32);
    for e in exprs {
        put_expr(out, e);
    }
}

fn read_exprs(r: &mut Reader) -> Result<Vec<Expr>, WalError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_expr(r)?);
    }
    Ok(out)
}

pub(crate) fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Col(i) => {
            put_u8(out, 0);
            put_u32(out, *i as u32);
        }
        Expr::Named(n) => {
            put_u8(out, 1);
            put_str(out, n);
        }
        Expr::Param(n) => {
            put_u8(out, 2);
            put_str(out, n);
        }
        Expr::Lit(v) => {
            put_u8(out, 3);
            put_value(out, v);
        }
        Expr::Cmp(op, a, b) => {
            put_u8(out, 4);
            put_u8(out, cmp_tag(*op));
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::Arith(op, a, b) => {
            put_u8(out, 5);
            put_u8(out, arith_tag(*op));
            put_expr(out, a);
            put_expr(out, b);
        }
        Expr::And(parts) => {
            put_u8(out, 6);
            put_exprs(out, parts);
        }
        Expr::Or(parts) => {
            put_u8(out, 7);
            put_exprs(out, parts);
        }
        Expr::Not(inner) => {
            put_u8(out, 8);
            put_expr(out, inner);
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            put_u8(out, 9);
            put_expr(out, expr);
            put_str(out, pattern);
            put_u8(out, *negated as u8);
        }
        Expr::Substr { expr, start, len } => {
            put_u8(out, 10);
            put_expr(out, expr);
            put_u64(out, *start as u64);
            put_u64(out, *len as u64);
        }
        Expr::Year(inner) => {
            put_u8(out, 11);
            put_expr(out, inner);
        }
        Expr::Month(inner) => {
            put_u8(out, 12);
            put_expr(out, inner);
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            put_u8(out, 13);
            put_u32(out, branches.len() as u32);
            for (w, t) in branches {
                put_expr(out, w);
                put_expr(out, t);
            }
            put_expr(out, otherwise);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            put_u8(out, 14);
            put_expr(out, expr);
            put_u32(out, list.len() as u32);
            for v in list {
                put_value(out, v);
            }
            put_u8(out, *negated as u8);
        }
        Expr::IsNull { expr, negated } => {
            put_u8(out, 15);
            put_expr(out, expr);
            put_u8(out, *negated as u8);
        }
    }
}

pub(crate) fn read_expr(r: &mut Reader) -> Result<Expr, WalError> {
    Ok(match r.u8()? {
        0 => Expr::Col(r.u32()? as usize),
        1 => Expr::Named(r.str()?),
        2 => Expr::Param(r.str()?),
        3 => Expr::Lit(read_value(r)?),
        4 => {
            let op = cmp_from(r.u8()?)?;
            Expr::Cmp(op, Box::new(read_expr(r)?), Box::new(read_expr(r)?))
        }
        5 => {
            let op = arith_from(r.u8()?)?;
            Expr::Arith(op, Box::new(read_expr(r)?), Box::new(read_expr(r)?))
        }
        6 => Expr::And(read_exprs(r)?),
        7 => Expr::Or(read_exprs(r)?),
        8 => Expr::Not(Box::new(read_expr(r)?)),
        9 => Expr::Like {
            expr: Box::new(read_expr(r)?),
            pattern: r.str()?,
            negated: r.u8()? != 0,
        },
        10 => Expr::Substr {
            expr: Box::new(read_expr(r)?),
            start: r.u64()? as usize,
            len: r.u64()? as usize,
        },
        11 => Expr::Year(Box::new(read_expr(r)?)),
        12 => Expr::Month(Box::new(read_expr(r)?)),
        13 => {
            let n = r.count()?;
            let mut branches = Vec::with_capacity(n);
            for _ in 0..n {
                let w = read_expr(r)?;
                let t = read_expr(r)?;
                branches.push((w, t));
            }
            Expr::Case {
                branches,
                otherwise: Box::new(read_expr(r)?),
            }
        }
        14 => {
            let expr = Box::new(read_expr(r)?);
            let n = r.count()?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(read_value(r)?);
            }
            Expr::InList {
                expr,
                list,
                negated: r.u8()? != 0,
            }
        }
        15 => Expr::IsNull {
            expr: Box::new(read_expr(r)?),
            negated: r.u8()? != 0,
        },
        t => return Err(corrupt(format!("unknown expr tag {t}"))),
    })
}

// ---- plans ----------------------------------------------------------------

fn agg_tag(a: &AggFunc) -> (u8, Option<&Expr>) {
    match a {
        AggFunc::CountStar => (0, None),
        AggFunc::Count(e) => (1, Some(e)),
        AggFunc::Sum(e) => (2, Some(e)),
        AggFunc::Min(e) => (3, Some(e)),
        AggFunc::Max(e) => (4, Some(e)),
        AggFunc::Avg(e) => (5, Some(e)),
        AggFunc::CountDistinct(e) => (6, Some(e)),
    }
}

fn put_agg(out: &mut Vec<u8>, a: &AggFunc) {
    let (tag, expr) = agg_tag(a);
    put_u8(out, tag);
    if let Some(e) = expr {
        put_expr(out, e);
    }
}

fn read_agg(r: &mut Reader) -> Result<AggFunc, WalError> {
    Ok(match r.u8()? {
        0 => AggFunc::CountStar,
        1 => AggFunc::Count(read_expr(r)?),
        2 => AggFunc::Sum(read_expr(r)?),
        3 => AggFunc::Min(read_expr(r)?),
        4 => AggFunc::Max(read_expr(r)?),
        5 => AggFunc::Avg(read_expr(r)?),
        6 => AggFunc::CountDistinct(read_expr(r)?),
        t => return Err(corrupt(format!("unknown agg tag {t}"))),
    })
}

fn put_sort_keys(out: &mut Vec<u8>, keys: &[SortKeyExpr]) {
    put_u32(out, keys.len() as u32);
    for k in keys {
        put_expr(out, &k.expr);
        put_u8(out, matches!(k.order, SortOrder::Desc) as u8);
    }
}

fn read_sort_keys(r: &mut Reader) -> Result<Vec<SortKeyExpr>, WalError> {
    let n = r.count()?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        let expr = read_expr(r)?;
        let key = if r.u8()? != 0 {
            SortKeyExpr::desc(expr)
        } else {
            SortKeyExpr::asc(expr)
        };
        keys.push(key);
    }
    Ok(keys)
}

fn join_tag(k: JoinKind) -> u8 {
    match k {
        JoinKind::Inner => 0,
        JoinKind::LeftOuter => 1,
        JoinKind::Semi => 2,
        JoinKind::Anti => 3,
        JoinKind::Single => 4,
    }
}

fn join_from(tag: u8) -> Result<JoinKind, WalError> {
    Ok(match tag {
        0 => JoinKind::Inner,
        1 => JoinKind::LeftOuter,
        2 => JoinKind::Semi,
        3 => JoinKind::Anti,
        4 => JoinKind::Single,
        t => return Err(corrupt(format!("unknown join tag {t}"))),
    })
}

fn put_strs(out: &mut Vec<u8>, strs: &[String]) {
    put_u32(out, strs.len() as u32);
    for s in strs {
        put_str(out, s);
    }
}

fn read_strs(r: &mut Reader) -> Result<Vec<String>, WalError> {
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(out)
}

/// Encode a bound plan. `Cached`/`Store` wrappers are recycler-session
/// artifacts and are rejected — lineage persists the *canonical* subtree.
pub fn encode_plan(plan: &Plan) -> Result<Vec<u8>, WalError> {
    let mut out = Vec::with_capacity(128);
    put_plan(&mut out, plan)?;
    Ok(out)
}

fn put_plan(out: &mut Vec<u8>, plan: &Plan) -> Result<(), WalError> {
    match plan {
        Plan::Scan { table, cols } => {
            put_u8(out, 1);
            put_str(out, table);
            put_strs(out, cols);
        }
        Plan::FnScan { name, args, schema } => {
            put_u8(out, 2);
            put_str(out, name);
            put_exprs(out, args);
            put_schema(out, schema);
        }
        Plan::Select { child, predicate } => {
            put_u8(out, 3);
            put_plan(out, child)?;
            put_expr(out, predicate);
        }
        Plan::Project {
            child,
            exprs,
            names,
        } => {
            put_u8(out, 4);
            put_plan(out, child)?;
            put_exprs(out, exprs);
            put_strs(out, names);
        }
        Plan::Aggregate {
            child,
            group_by,
            group_names,
            aggs,
            agg_names,
        } => {
            put_u8(out, 5);
            put_plan(out, child)?;
            put_exprs(out, group_by);
            put_strs(out, group_names);
            put_u32(out, aggs.len() as u32);
            for a in aggs {
                put_agg(out, a);
            }
            put_strs(out, agg_names);
        }
        Plan::Join {
            left,
            right,
            kind,
            left_keys,
            right_keys,
        } => {
            put_u8(out, 6);
            put_plan(out, left)?;
            put_plan(out, right)?;
            put_u8(out, join_tag(*kind));
            put_exprs(out, left_keys);
            put_exprs(out, right_keys);
        }
        Plan::TopN { child, keys, n } => {
            put_u8(out, 7);
            put_plan(out, child)?;
            put_sort_keys(out, keys);
            put_u64(out, *n as u64);
        }
        Plan::Sort { child, keys } => {
            put_u8(out, 8);
            put_plan(out, child)?;
            put_sort_keys(out, keys);
        }
        Plan::Limit { child, n } => {
            put_u8(out, 9);
            put_plan(out, child)?;
            put_u64(out, *n as u64);
        }
        Plan::UnionAll { children } => {
            put_u8(out, 10);
            put_u32(out, children.len() as u32);
            for c in children {
                put_plan(out, c)?;
            }
        }
        Plan::Cached { .. } | Plan::Store { .. } => {
            return Err(WalError::Corrupt(
                "recycler-internal plan node (Cached/Store) is not persistable".to_string(),
            ));
        }
    }
    Ok(())
}

/// Decode a plan previously written by [`encode_plan`].
pub fn decode_plan(payload: &[u8]) -> Result<Plan, WalError> {
    let mut r = Reader::new(payload);
    let plan = read_plan(&mut r)?;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after plan"));
    }
    Ok(plan)
}

fn read_plan(r: &mut Reader) -> Result<Plan, WalError> {
    Ok(match r.u8()? {
        1 => Plan::Scan {
            table: r.str()?,
            cols: read_strs(r)?,
        },
        2 => Plan::FnScan {
            name: r.str()?,
            args: read_exprs(r)?,
            schema: read_schema(r)?,
        },
        3 => Plan::Select {
            child: Box::new(read_plan(r)?),
            predicate: read_expr(r)?,
        },
        4 => Plan::Project {
            child: Box::new(read_plan(r)?),
            exprs: read_exprs(r)?,
            names: read_strs(r)?,
        },
        5 => {
            let child = Box::new(read_plan(r)?);
            let group_by = read_exprs(r)?;
            let group_names = read_strs(r)?;
            let n = r.count()?;
            let mut aggs = Vec::with_capacity(n);
            for _ in 0..n {
                aggs.push(read_agg(r)?);
            }
            Plan::Aggregate {
                child,
                group_by,
                group_names,
                aggs,
                agg_names: read_strs(r)?,
            }
        }
        6 => {
            let left = Box::new(read_plan(r)?);
            let right = Box::new(read_plan(r)?);
            let kind = join_from(r.u8()?)?;
            Plan::Join {
                left,
                right,
                kind,
                left_keys: read_exprs(r)?,
                right_keys: read_exprs(r)?,
            }
        }
        7 => Plan::TopN {
            child: Box::new(read_plan(r)?),
            keys: read_sort_keys(r)?,
            n: r.u64()? as usize,
        },
        8 => Plan::Sort {
            child: Box::new(read_plan(r)?),
            keys: read_sort_keys(r)?,
        },
        9 => Plan::Limit {
            child: Box::new(read_plan(r)?),
            n: r.u64()? as usize,
        },
        10 => {
            let n = r.count()?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(read_plan(r)?);
            }
            Plan::UnionAll { children }
        }
        t => return Err(corrupt(format!("unknown plan tag {t}"))),
    })
}

// ---- lineage --------------------------------------------------------------

/// Encode one lineage entry (plan + epoch vector + ranking statistics).
pub fn encode_lineage(entry: &LineageEntry) -> Result<Vec<u8>, WalError> {
    let mut out = Vec::with_capacity(160);
    put_plan(&mut out, &entry.plan)?;
    put_u32(&mut out, entry.epochs.len() as u32);
    for (t, e) in &entry.epochs {
        put_str(&mut out, t);
        put_u64(&mut out, *e);
    }
    put_f64(&mut out, entry.benefit);
    put_f64(&mut out, entry.heat);
    put_f64(&mut out, entry.cost_ns);
    put_f64(&mut out, entry.cost_work);
    put_u64(&mut out, entry.rows);
    put_u64(&mut out, entry.bytes);
    Ok(out)
}

pub(crate) fn read_lineage(r: &mut Reader) -> Result<LineageEntry, WalError> {
    let plan = read_plan(r)?;
    let n = r.count()?;
    let mut epochs = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.str()?;
        let e = r.u64()?;
        epochs.push((t, e));
    }
    Ok(LineageEntry {
        plan,
        epochs,
        benefit: r.f64()?,
        heat: r.f64()?,
        cost_ns: r.f64()?,
        cost_work: r.f64()?,
        rows: r.u64()?,
        bytes: r.u64()?,
    })
}

/// Decode one lineage entry written by [`encode_lineage`].
pub fn decode_lineage(payload: &[u8]) -> Result<LineageEntry, WalError> {
    let mut r = Reader::new(payload);
    let entry = read_lineage(&mut r)?;
    if !r.is_empty() {
        return Err(corrupt("trailing bytes after lineage entry"));
    }
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> Plan {
        let scan = Plan::Scan {
            table: "lineitem".to_string(),
            cols: vec!["l_qty".to_string(), "l_price".to_string()],
        };
        let filtered = scan.select(Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Col(0)),
            Box::new(Expr::Lit(Value::Int(10))),
        ));
        Plan::Aggregate {
            child: Box::new(filtered),
            group_by: vec![Expr::Col(0)],
            group_names: vec!["q".to_string()],
            aggs: vec![AggFunc::Sum(Expr::Col(1)), AggFunc::CountStar],
            agg_names: vec!["s".to_string(), "c".to_string()],
        }
    }

    #[test]
    fn record_roundtrip() {
        let schema = Schema::from_pairs([("x", DataType::Int), ("s", DataType::Str)]);
        for delta in [
            TableDelta::Append {
                rows: vec![
                    vec![Value::Int(1), Value::str("a")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            TableDelta::Delete {
                deleted: vec![0, 7, 9],
            },
            TableDelta::Replace { rows: vec![] },
        ] {
            let rec = CommitRecord {
                table: "t".to_string(),
                schema: schema.clone(),
                epoch: 42,
                delta,
            };
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn value_roundtrip_all_types() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-5),
            Value::Float(2.5),
            Value::str("héllo"),
            Value::Date(19_000),
        ] {
            let mut out = Vec::new();
            put_value(&mut out, &v);
            assert_eq!(read_value(&mut Reader::new(&out)).unwrap(), v);
        }
    }

    #[test]
    fn plan_roundtrip() {
        let plan = sample_plan();
        let bytes = encode_plan(&plan).unwrap();
        assert_eq!(decode_plan(&bytes).unwrap(), plan);
    }

    #[test]
    fn join_topn_union_roundtrip() {
        let left = Plan::Scan {
            table: "a".to_string(),
            cols: vec!["k".to_string()],
        };
        let right = Plan::Scan {
            table: "b".to_string(),
            cols: vec!["k".to_string()],
        };
        let join = Plan::Join {
            left: Box::new(left.clone()),
            right: Box::new(right),
            kind: JoinKind::Semi,
            left_keys: vec![Expr::Col(0)],
            right_keys: vec![Expr::Col(0)],
        };
        let plan = Plan::UnionAll {
            children: vec![
                Plan::TopN {
                    child: Box::new(join),
                    keys: vec![SortKeyExpr::desc(Expr::Col(0))],
                    n: 7,
                },
                Plan::Limit {
                    child: Box::new(left),
                    n: 3,
                },
            ],
        };
        let bytes = encode_plan(&plan).unwrap();
        assert_eq!(decode_plan(&bytes).unwrap(), plan);
    }

    #[test]
    fn store_and_cached_are_rejected() {
        let plan = Plan::Cached {
            tag: 1,
            schema: Schema::from_pairs([("x", DataType::Int)]),
        };
        assert!(matches!(encode_plan(&plan), Err(WalError::Corrupt(_))));
    }

    #[test]
    fn lineage_roundtrip() {
        let entry = LineageEntry {
            plan: sample_plan(),
            epochs: vec![("lineitem".to_string(), 3)],
            benefit: 12.5,
            heat: 0.75,
            cost_ns: 1e6,
            cost_work: 5e4,
            rows: 100,
            bytes: 4096,
        };
        let bytes = encode_lineage(&entry).unwrap();
        let back = decode_lineage(&bytes).unwrap();
        assert_eq!(back.plan, entry.plan);
        assert_eq!(back.epochs, entry.epochs);
        assert_eq!(back.benefit, entry.benefit);
        assert_eq!(back.rows, entry.rows);
    }

    #[test]
    fn corrupt_payloads_error_cleanly() {
        let rec = CommitRecord {
            table: "t".to_string(),
            schema: Schema::from_pairs([("x", DataType::Int)]),
            epoch: 1,
            delta: TableDelta::Append {
                rows: vec![vec![Value::Int(1)]],
            },
        };
        let bytes = encode_record(&rec);
        // Every truncation of a valid payload must error, never panic.
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err());
        }
        // A wild tag errors too.
        let mut bad = bytes.clone();
        bad[0] = 0xEE;
        assert!(decode_record(&bad).is_err());
    }
}
