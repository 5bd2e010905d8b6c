//! Postgres wire protocol v3: message framing, backend encoders, frontend
//! decoders.
//!
//! Only the subset the serving layer needs is implemented — startup
//! (including `SSLRequest`/`GSSENCRequest` refusal and `CancelRequest`),
//! the simple query cycle, the extended Parse/Bind/Describe/Execute/Sync
//! cycle with text-format parameters and results, and error reporting with
//! SQLSTATE codes and statement positions. Everything is plain
//! `Vec<u8>`-level encoding over `std::net`; no external dependencies.

use std::io::Write;

use rdb_vector::{format_date, Batch, ColumnSlice, DataType, Schema, Value};

/// Protocol version 3.0 in a startup packet.
pub const PROTOCOL_V3: i32 = 196608;
/// `CancelRequest` magic code.
pub const CANCEL_CODE: i32 = 80877102;
/// `SSLRequest` magic code (refused with `'N'`).
pub const SSL_CODE: i32 = 80877103;
/// `GSSENCRequest` magic code (refused with `'N'`).
pub const GSSENC_CODE: i32 = 80877104;

/// Upper bound on a single frontend message body; larger length prefixes
/// are treated as a protocol violation (they are far more likely garbage
/// than a legitimate 64 MiB statement).
pub const MAX_FRAME: usize = 64 << 20;

/// A malformed frontend message: connection-fatal, but never
/// server-fatal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol violation: {}", self.0)
    }
}

/// Postgres type OID for a column type (the ones psql and drivers key
/// their text decoding on).
pub fn type_oid(dtype: DataType) -> i32 {
    match dtype {
        DataType::Bool => 16,   // bool
        DataType::Int => 20,    // int8
        DataType::Float => 701, // float8
        DataType::Str => 25,    // text
        DataType::Date => 1082, // date
    }
}

/// Wire size of a type (`-1` = variable length).
pub fn type_len(dtype: DataType) -> i16 {
    match dtype {
        DataType::Bool => 1,
        DataType::Int | DataType::Float => 8,
        DataType::Str => -1,
        DataType::Date => 4,
    }
}

/// Text-format rendering of one value; `None` encodes SQL NULL.
pub fn text_value(v: &Value) -> Option<String> {
    match v {
        Value::Null => None,
        Value::Bool(b) => Some(if *b { "t" } else { "f" }.to_string()),
        Value::Int(i) => Some(i.to_string()),
        Value::Float(f) => Some(if f.is_nan() {
            "NaN".to_string()
        } else if f.is_infinite() {
            (if *f > 0.0 { "Infinity" } else { "-Infinity" }).to_string()
        } else {
            format!("{f}")
        }),
        Value::Str(s) => Some(s.to_string()),
        Value::Date(d) => Some(format_date(*d)),
    }
}

/// Decode one text-format parameter into a [`Value`], guided by the OID
/// the client declared at Parse time (0 = unspecified → inferred from the
/// literal's shape: integer, float, `YYYY-MM-DD` date, bool, else text).
pub fn decode_param(oid: i32, raw: Option<&[u8]>) -> Result<Value, ProtoError> {
    let Some(raw) = raw else {
        return Ok(Value::Null);
    };
    let text = std::str::from_utf8(raw)
        .map_err(|_| ProtoError("parameter value is not valid UTF-8".into()))?;
    let parse_err = |ty: &str| ProtoError(format!("cannot decode '{text}' as {ty}"));
    match oid {
        16 => match text {
            "t" | "true" | "TRUE" | "1" => Ok(Value::Bool(true)),
            "f" | "false" | "FALSE" | "0" => Ok(Value::Bool(false)),
            _ => Err(parse_err("bool")),
        },
        20 | 21 | 23 => text
            .parse::<i64>()
            .map(Value::Int)
            .map_err(|_| parse_err("int")),
        700 | 701 | 1700 => text
            .parse::<f64>()
            .map(Value::Float)
            .map_err(|_| parse_err("float")),
        1082 => parse_date(text).map(Value::Date).ok_or(parse_err("date")),
        25 | 1043 => Ok(Value::str(text)),
        0 => Ok(infer_value(text)),
        other => Err(ProtoError(format!(
            "unsupported parameter type OID {other}"
        ))),
    }
}

/// Shape-based inference for parameters bound without a declared type.
fn infer_value(text: &str) -> Value {
    if let Ok(i) = text.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = text.parse::<f64>() {
        return Value::Float(f);
    }
    if let Some(d) = parse_date(text) {
        return Value::Date(d);
    }
    match text {
        "true" | "TRUE" => Value::Bool(true),
        "false" | "FALSE" => Value::Bool(false),
        _ => Value::str(text),
    }
}

/// `YYYY-MM-DD` → days since epoch.
pub fn parse_date(text: &str) -> Option<i32> {
    let mut it = text.split('-');
    let y: i32 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if it.next().is_some() || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(rdb_vector::date_from_ymd(y, m, d))
}

// ---------------------------------------------------------------------------
// Backend (server → client) encoding
// ---------------------------------------------------------------------------

fn put_i16(buf: &mut Vec<u8>, v: i16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_cstr(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

/// Append one tagged backend message to `out`; `body` writes the payload.
pub fn msg(out: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    out.push(tag);
    let len_at = out.len();
    put_i32(out, 0);
    body(out);
    let len = (out.len() - len_at) as i32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
}

/// `AuthenticationOk`.
pub fn authentication_ok(out: &mut Vec<u8>) {
    msg(out, b'R', |b| put_i32(b, 0));
}

/// `ParameterStatus(name, value)`.
pub fn parameter_status(out: &mut Vec<u8>, name: &str, value: &str) {
    msg(out, b'S', |b| {
        put_cstr(b, name);
        put_cstr(b, value);
    });
}

/// `BackendKeyData(pid, secret)` — the cancel key for this connection.
pub fn backend_key_data(out: &mut Vec<u8>, pid: i32, secret: i32) {
    msg(out, b'K', |b| {
        put_i32(b, pid);
        put_i32(b, secret);
    });
}

/// `ReadyForQuery` (always idle: the engine has no wire-level
/// transactions).
pub fn ready_for_query(out: &mut Vec<u8>) {
    msg(out, b'Z', |b| b.push(b'I'));
}

/// `RowDescription` from a result schema, all columns text-format.
pub fn row_description(out: &mut Vec<u8>, schema: &Schema) {
    msg(out, b'T', |b| {
        put_i16(b, schema.fields().len() as i16);
        for f in schema.fields() {
            put_cstr(b, &f.name);
            put_i32(b, 0); // table OID: not a base column
            put_i16(b, 0); // attribute number
            put_i32(b, type_oid(f.dtype));
            put_i16(b, type_len(f.dtype));
            put_i32(b, -1); // typmod
            put_i16(b, 0); // text format
        }
    });
}

/// One `DataRow` in text format.
pub fn data_row(out: &mut Vec<u8>, row: &[Value]) {
    msg(out, b'D', |b| {
        put_i16(b, row.len() as i16);
        for v in row {
            match text_value(v) {
                None => put_i32(b, -1),
                Some(text) => {
                    put_i32(b, text.len() as i32);
                    b.extend_from_slice(text.as_bytes());
                }
            }
        }
    });
}

/// One `DataRow` per logical row of `batch`, each cell's text written
/// straight from its typed column: no `Value` per cell, no string copied
/// out of its dictionary. Byte-identical to [`data_row`] over the
/// [`text_value`]s of the same rows.
pub fn data_rows(out: &mut Vec<u8>, batch: &Batch) {
    let cols = batch.columns();
    batch.for_each_selected(|row| {
        msg(out, b'D', |b| {
            put_i16(b, cols.len() as i16);
            for c in cols {
                if !c.is_valid(row) {
                    put_i32(b, -1);
                    continue;
                }
                let at = b.len();
                put_i32(b, 0);
                match c.values() {
                    ColumnSlice::Bool(v) => b.push(if v[row] { b't' } else { b'f' }),
                    ColumnSlice::Int(v) => write!(b, "{}", v[row]).expect("write to a Vec"),
                    ColumnSlice::Float(v) => put_float(b, v[row]),
                    ColumnSlice::Str(v) => b.extend_from_slice(v.get(row).as_bytes()),
                    ColumnSlice::Date(v) => b.extend_from_slice(format_date(v[row]).as_bytes()),
                }
                let len = (b.len() - at - 4) as i32;
                b[at..at + 4].copy_from_slice(&len.to_be_bytes());
            }
        })
    });
}

/// A float's text as [`text_value`] renders it.
fn put_float(b: &mut Vec<u8>, f: f64) {
    if f.is_nan() {
        b.extend_from_slice(b"NaN");
    } else if f.is_infinite() {
        b.extend_from_slice(if f > 0.0 { b"Infinity" } else { b"-Infinity" });
    } else {
        write!(b, "{f}").expect("write to a Vec");
    }
}

/// `CommandComplete` with the given tag (`SELECT 4`, `INSERT 0 2`, …).
pub fn command_complete(out: &mut Vec<u8>, tag: &str) {
    msg(out, b'C', |b| put_cstr(b, tag));
}

/// `EmptyQueryResponse` (the statement was empty text).
pub fn empty_query_response(out: &mut Vec<u8>) {
    msg(out, b'I', |b| {
        let _ = b;
    });
}

/// `ParseComplete`.
pub fn parse_complete(out: &mut Vec<u8>) {
    msg(out, b'1', |_| {});
}

/// `BindComplete`.
pub fn bind_complete(out: &mut Vec<u8>) {
    msg(out, b'2', |_| {});
}

/// `CloseComplete`.
pub fn close_complete(out: &mut Vec<u8>) {
    msg(out, b'3', |_| {});
}

/// `NoData` (Describe of a statement producing no row set).
pub fn no_data(out: &mut Vec<u8>) {
    msg(out, b'n', |_| {});
}

/// `ParameterDescription` with the given OIDs.
pub fn parameter_description(out: &mut Vec<u8>, oids: &[i32]) {
    msg(out, b't', |b| {
        put_i16(b, oids.len() as i16);
        for &oid in oids {
            put_i32(b, oid);
        }
    });
}

/// `ErrorResponse`. `position` is the 1-based *character* offset into the
/// statement text (the span start of a [`rdb_sql::SqlError`]); `detail`
/// carries the caret-rendered report when available.
pub fn error_response(
    out: &mut Vec<u8>,
    code: &str,
    message: &str,
    position: Option<usize>,
    detail: Option<&str>,
) {
    msg(out, b'E', |b| {
        b.push(b'S');
        put_cstr(b, "ERROR");
        b.push(b'V');
        put_cstr(b, "ERROR");
        b.push(b'C');
        put_cstr(b, code);
        b.push(b'M');
        put_cstr(b, message);
        if let Some(p) = position {
            b.push(b'P');
            put_cstr(b, &p.to_string());
        }
        if let Some(d) = detail {
            b.push(b'D');
            put_cstr(b, d);
        }
        b.push(0);
    });
}

// ---------------------------------------------------------------------------
// Frontend (client → server) decoding
// ---------------------------------------------------------------------------

/// A decoded post-startup frontend message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frontend {
    /// Simple query: one or more `;`-separated statements.
    Query(String),
    /// Extended: parse `sql` as prepared statement `name`.
    Parse {
        /// Statement name (`""` = the unnamed statement).
        name: String,
        /// Statement text.
        sql: String,
        /// Parameter type OIDs the client pre-declared (may be shorter
        /// than the statement's parameter list; missing entries are
        /// inferred at Bind).
        param_oids: Vec<i32>,
    },
    /// Extended: bind parameter values to a portal.
    Bind {
        /// Portal name (`""` = the unnamed portal).
        portal: String,
        /// Source prepared statement.
        statement: String,
        /// Raw parameter values (`None` = NULL); text format only.
        params: Vec<Option<Vec<u8>>>,
    },
    /// Extended: describe a statement (`'S'`) or portal (`'P'`).
    Describe {
        /// `b'S'` or `b'P'`.
        kind: u8,
        /// Statement/portal name.
        name: String,
    },
    /// Extended: run a portal. `max_rows` is accepted but not used for
    /// paging — the portal always runs to completion.
    Execute {
        /// Portal name.
        portal: String,
        /// Row-count hint (ignored; 0 = all).
        max_rows: i32,
    },
    /// Extended: close a statement (`'S'`) or portal (`'P'`).
    Close {
        /// `b'S'` or `b'P'`.
        kind: u8,
        /// Statement/portal name.
        name: String,
    },
    /// End of an extended-protocol batch.
    Sync,
    /// Flush buffered responses.
    Flush,
    /// Orderly disconnect.
    Terminate,
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn i16(&mut self) -> Result<i16, ProtoError> {
        let b = self
            .take(2)
            .ok_or_else(|| ProtoError("truncated int16".into()))?;
        Ok(i16::from_be_bytes([b[0], b[1]]))
    }

    fn i32(&mut self) -> Result<i32, ProtoError> {
        let b = self
            .take(4)
            .ok_or_else(|| ProtoError("truncated int32".into()))?;
        Ok(i32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.at + n > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Some(s)
    }

    fn cstr(&mut self) -> Result<String, ProtoError> {
        let rest = &self.buf[self.at..];
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| ProtoError("unterminated string".into()))?;
        let s = std::str::from_utf8(&rest[..nul])
            .map_err(|_| ProtoError("string is not valid UTF-8".into()))?;
        self.at += nul + 1;
        Ok(s.to_string())
    }
}

/// Decode the body of one tagged frontend message.
pub fn parse_frame(tag: u8, body: &[u8]) -> Result<Frontend, ProtoError> {
    let mut r = Reader { buf: body, at: 0 };
    match tag {
        b'Q' => Ok(Frontend::Query(r.cstr()?)),
        b'P' => {
            let name = r.cstr()?;
            let sql = r.cstr()?;
            let n = r.i16()?;
            if n < 0 {
                return Err(ProtoError("negative parameter-type count".into()));
            }
            let mut param_oids = Vec::with_capacity(n as usize);
            for _ in 0..n {
                param_oids.push(r.i32()?);
            }
            Ok(Frontend::Parse {
                name,
                sql,
                param_oids,
            })
        }
        b'B' => {
            let portal = r.cstr()?;
            let statement = r.cstr()?;
            let nfmt = r.i16()?;
            if nfmt < 0 {
                return Err(ProtoError("negative format count".into()));
            }
            for _ in 0..nfmt {
                if r.i16()? != 0 {
                    return Err(ProtoError(
                        "binary parameter format not supported (text only)".into(),
                    ));
                }
            }
            let nparams = r.i16()?;
            if nparams < 0 {
                return Err(ProtoError("negative parameter count".into()));
            }
            let mut params = Vec::with_capacity(nparams as usize);
            for _ in 0..nparams {
                let len = r.i32()?;
                if len < 0 {
                    params.push(None);
                } else {
                    let bytes = r
                        .take(len as usize)
                        .ok_or_else(|| ProtoError("truncated parameter value".into()))?;
                    params.push(Some(bytes.to_vec()));
                }
            }
            let nres = r.i16()?;
            for _ in 0..nres.max(0) {
                if r.i16()? != 0 {
                    return Err(ProtoError(
                        "binary result format not supported (text only)".into(),
                    ));
                }
            }
            Ok(Frontend::Bind {
                portal,
                statement,
                params,
            })
        }
        b'D' | b'C' => {
            let kind = r
                .take(1)
                .ok_or_else(|| ProtoError("missing describe/close kind".into()))?[0];
            if kind != b'S' && kind != b'P' {
                return Err(ProtoError(format!(
                    "describe/close kind must be 'S' or 'P', got {kind:#x}"
                )));
            }
            let name = r.cstr()?;
            if tag == b'D' {
                Ok(Frontend::Describe { kind, name })
            } else {
                Ok(Frontend::Close { kind, name })
            }
        }
        b'E' => {
            let portal = r.cstr()?;
            let max_rows = r.i32()?;
            Ok(Frontend::Execute { portal, max_rows })
        }
        b'S' => Ok(Frontend::Sync),
        b'H' => Ok(Frontend::Flush),
        b'X' => Ok(Frontend::Terminate),
        other => Err(ProtoError(format!(
            "unknown frontend message tag {:?} ({other:#x})",
            other as char
        ))),
    }
}

/// Split simple-query text into statements on `;` outside single-quoted
/// strings (`''` escapes a quote). Empty statements are dropped.
pub fn split_statements(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut in_str = false;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\'' => in_str = !in_str,
            b';' if !in_str => {
                let stmt = text[start..i].trim();
                if !stmt.is_empty() {
                    out.push(stmt);
                }
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdb_vector::{date_from_ymd, Column};
    use std::sync::Arc;

    #[test]
    fn data_rows_match_value_rendering() {
        let col = |t, vals: Vec<Value>| Column::from_values(t, &vals);
        let batch = Batch::new(vec![
            col(
                DataType::Bool,
                vec![
                    Value::Bool(true),
                    Value::Null,
                    Value::Bool(false),
                    Value::Bool(true),
                ],
            ),
            col(
                DataType::Int,
                vec![
                    Value::Int(0),
                    Value::Int(-7),
                    Value::Null,
                    Value::Int(i64::MAX),
                ],
            ),
            col(
                DataType::Float,
                vec![
                    Value::Float(-0.0),
                    Value::Float(f64::NAN),
                    Value::Float(f64::NEG_INFINITY),
                    Value::Float(0.1 + 0.2),
                ],
            ),
            col(
                DataType::Str,
                vec![
                    Value::str(""),
                    Value::str("héllo, 世界"),
                    Value::Null,
                    Value::str("x"),
                ],
            ),
            col(
                DataType::Date,
                vec![
                    Value::Date(date_from_ymd(1995, 3, 5)),
                    Value::Null,
                    Value::Date(0),
                    Value::Date(-1),
                ],
            ),
        ]);
        for b in [batch.clone(), batch.with_selection(Arc::new(vec![3, 1]))] {
            let mut want = Vec::new();
            for row in b.to_rows() {
                data_row(&mut want, &row);
            }
            let mut got = Vec::new();
            data_rows(&mut got, &b);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn frame_roundtrip_parse_bind() {
        let mut body = Vec::new();
        put_cstr(&mut body, "s1");
        put_cstr(&mut body, "SELECT 1");
        put_i16(&mut body, 2);
        put_i32(&mut body, 20);
        put_i32(&mut body, 25);
        match parse_frame(b'P', &body).unwrap() {
            Frontend::Parse {
                name,
                sql,
                param_oids,
            } => {
                assert_eq!(name, "s1");
                assert_eq!(sql, "SELECT 1");
                assert_eq!(param_oids, vec![20, 25]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bind_rejects_binary_formats() {
        let mut body = Vec::new();
        put_cstr(&mut body, "");
        put_cstr(&mut body, "");
        put_i16(&mut body, 1);
        put_i16(&mut body, 1); // binary
        assert!(parse_frame(b'B', &body).is_err());
    }

    #[test]
    fn truncated_messages_error_cleanly() {
        assert!(parse_frame(b'P', b"name-without-nul").is_err());
        assert!(parse_frame(b'E', b"p\0").is_err()); // missing max_rows
        assert!(parse_frame(b'Z', b"").is_err()); // backend-only tag
    }

    #[test]
    fn statement_splitting_respects_strings() {
        assert_eq!(
            split_statements("SELECT 'a;b'; INSERT INTO t VALUES (1);;"),
            vec!["SELECT 'a;b'", "INSERT INTO t VALUES (1)"]
        );
        assert_eq!(split_statements("  ;; "), Vec::<&str>::new());
    }

    #[test]
    fn text_values_render_postgres_style() {
        assert_eq!(text_value(&Value::Bool(true)).unwrap(), "t");
        assert_eq!(text_value(&Value::Null), None);
        assert_eq!(text_value(&Value::Int(-7)).unwrap(), "-7");
        assert_eq!(
            text_value(&Value::Date(rdb_vector::date_from_ymd(1995, 3, 5))).unwrap(),
            "1995-03-05"
        );
    }

    #[test]
    fn param_decoding_follows_oids_then_shape() {
        assert_eq!(decode_param(20, Some(b"42")).unwrap(), Value::Int(42));
        assert_eq!(
            decode_param(25, Some(b"42")).unwrap(),
            Value::str("42"),
            "declared text stays text"
        );
        assert_eq!(decode_param(0, Some(b"42")).unwrap(), Value::Int(42));
        assert_eq!(decode_param(0, Some(b"4.5")).unwrap(), Value::Float(4.5));
        assert_eq!(
            decode_param(0, Some(b"1995-03-05")).unwrap(),
            Value::Date(rdb_vector::date_from_ymd(1995, 3, 5))
        );
        assert_eq!(decode_param(0, None).unwrap(), Value::Null);
        assert!(decode_param(16, Some(b"maybe")).is_err());
    }

    #[test]
    fn backend_messages_are_framed() {
        let mut out = Vec::new();
        command_complete(&mut out, "SELECT 1");
        assert_eq!(out[0], b'C');
        let len = i32::from_be_bytes([out[1], out[2], out[3], out[4]]) as usize;
        assert_eq!(len + 1, out.len());
        assert_eq!(&out[5..out.len() - 1], b"SELECT 1");
    }
}
