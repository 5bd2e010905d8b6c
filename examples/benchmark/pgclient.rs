//! A blocking pgwire v3 client for the benchmark: startup, the simple
//! cycle, the unnamed extended cycle (Parse+Bind+Execute+Sync in one
//! packet), and named prepared statements (Parse once, then
//! Bind+Execute+Sync). Text format only, `std::net` only, and
//! independent of both the server's codec and `tests/support`, so the
//! timings cover the real wire bytes and later changes to either cannot
//! move them.
//!
//! A cycle is timed by the caller from just before the request is written
//! to just after `ReadyForQuery` is read. Inside that window the client
//! only frames bytes: `DataRow` bodies are kept raw in [`Reply`] and
//! decoded afterwards, for the sampled results the oracle checks.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest wait for any one backend message.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Everything the backend sent for one cycle, up to `ReadyForQuery`.
#[derive(Debug, Default)]
pub struct Reply {
    /// `DataRow` bodies, each prefixed by its length as a big-endian u32.
    data: Vec<u8>,
    /// Number of `DataRow` messages.
    pub rows: usize,
    /// `CommandComplete` tag (`SELECT 3`, `INSERT 0 4`, …).
    pub tag: Option<String>,
    /// SQLSTATE and message of the first `ErrorResponse`, if any.
    pub error: Option<String>,
}

impl Reply {
    /// Decode the rows into text cells (`None` = NULL).
    pub fn decode_rows(&self) -> Vec<Vec<Option<String>>> {
        let mut out = Vec::with_capacity(self.rows);
        let mut at = 0usize;
        while at < self.data.len() {
            let len = u32::from_be_bytes(self.data[at..at + 4].try_into().unwrap()) as usize;
            out.push(decode_data_row(&self.data[at + 4..at + 4 + len]));
            at += 4 + len;
        }
        out
    }

    /// Rows affected, from a DML `CommandComplete` tag.
    pub fn affected(&self) -> Option<u64> {
        self.tag.as_ref()?.rsplit(' ').next()?.parse().ok()
    }
}

fn decode_data_row(body: &[u8]) -> Vec<Option<String>> {
    let n = i16::from_be_bytes([body[0], body[1]]) as usize;
    let mut at = 2usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        let len = i32::from_be_bytes(body[at..at + 4].try_into().unwrap());
        at += 4;
        if len < 0 {
            row.push(None);
        } else {
            let len = len as usize;
            row.push(Some(
                String::from_utf8_lossy(&body[at..at + len]).into_owned(),
            ));
            at += len;
        }
    }
    row
}

fn error_text(body: &[u8]) -> String {
    let mut code = String::new();
    let mut message = String::new();
    for field in body.split(|&b| b == 0) {
        match field.split_first() {
            Some((b'C', rest)) => code = String::from_utf8_lossy(rest).into_owned(),
            Some((b'M', rest)) => message = String::from_utf8_lossy(rest).into_owned(),
            _ => {}
        }
    }
    format!("{code}: {message}")
}

fn put_cstr(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

/// Append one tagged frontend message, patching its length afterwards.
fn frame(buf: &mut Vec<u8>, tag: u8, body: impl FnOnce(&mut Vec<u8>)) {
    buf.push(tag);
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let len = (buf.len() - at) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

fn parse_frame(buf: &mut Vec<u8>, name: &str, sql: &str) {
    frame(buf, b'P', |b| {
        put_cstr(b, name);
        put_cstr(b, sql);
        b.extend_from_slice(&0i16.to_be_bytes()); // no declared parameter types
    });
}

fn bind_execute_sync(buf: &mut Vec<u8>, statement: &str, params: &[String]) {
    frame(buf, b'B', |b| {
        put_cstr(b, ""); // unnamed portal
        put_cstr(b, statement);
        b.extend_from_slice(&0i16.to_be_bytes()); // all-text parameter formats
        b.extend_from_slice(&(params.len() as i16).to_be_bytes());
        for p in params {
            b.extend_from_slice(&(p.len() as i32).to_be_bytes());
            b.extend_from_slice(p.as_bytes());
        }
        b.extend_from_slice(&0i16.to_be_bytes()); // all-text result formats
    });
    frame(buf, b'E', |b| {
        put_cstr(b, "");
        b.extend_from_slice(&0i32.to_be_bytes()); // no row limit
    });
    frame(buf, b'S', |_| {});
}

/// The exact frontend bytes of one unnamed extended cycle. The traced run
/// decodes these with the server's own `parse_frame` to time
/// `server.decode` on what really crosses the socket.
pub fn extended_request(sql: &str, params: &[String]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(sql.len() + 64);
    parse_frame(&mut buf, "", sql);
    bind_execute_sync(&mut buf, "", params);
    buf
}

/// The exact frontend bytes of one Bind+Execute+Sync on a named statement.
pub fn named_request(statement: &str, params: &[String]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    bind_execute_sync(&mut buf, statement, params);
    buf
}

/// The exact frontend bytes of one simple-protocol query.
pub fn simple_request(sql: &str) -> Vec<u8> {
    let mut buf = Vec::with_capacity(sql.len() + 8);
    frame(&mut buf, b'Q', |b| put_cstr(b, sql));
    buf
}

/// A connected, authenticated pgwire client.
pub struct PgClient {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl PgClient {
    /// Connect and run the startup handshake through `ReadyForQuery`.
    pub fn connect(addr: SocketAddr) -> std::io::Result<PgClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A statement that panics a pool worker is never answered; fail
        // the run instead of hanging it.
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut body = Vec::new();
        body.extend_from_slice(&196608i32.to_be_bytes());
        for (k, v) in [("user", "bench"), ("database", "rdb")] {
            put_cstr(&mut body, k);
            put_cstr(&mut body, v);
        }
        body.push(0);
        let mut pkt = ((body.len() + 4) as i32).to_be_bytes().to_vec();
        pkt.extend_from_slice(&body);
        let mut client = PgClient {
            reader: BufReader::with_capacity(64 << 10, stream.try_clone()?),
            stream,
        };
        let reply = client.roundtrip(&pkt)?;
        match reply.error {
            Some(e) => Err(std::io::Error::other(format!("startup refused: {e}"))),
            None => Ok(client),
        }
    }

    /// Write `request` in one call and read the cycle it starts.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        self.stream.write_all(request)?;
        let mut reply = Reply::default();
        let mut head = [0u8; 5];
        let mut body = Vec::new();
        loop {
            self.reader.read_exact(&mut head)?;
            let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]) as usize;
            if len < 4 {
                return Err(std::io::Error::other(
                    "backend frame shorter than its header",
                ));
            }
            body.resize(len - 4, 0);
            self.reader.read_exact(&mut body)?;
            match head[0] {
                b'Z' => return Ok(reply),
                b'D' => {
                    reply.rows += 1;
                    reply
                        .data
                        .extend_from_slice(&(body.len() as u32).to_be_bytes());
                    reply.data.extend_from_slice(&body);
                }
                b'C' => {
                    let text = body.strip_suffix(&[0]).unwrap_or(&body);
                    reply.tag = Some(String::from_utf8_lossy(text).into_owned());
                }
                b'E' if reply.error.is_none() => reply.error = Some(error_text(&body)),
                _ => {}
            }
        }
    }

    /// Simple protocol: one `Query` message.
    pub fn simple(&mut self, sql: &str) -> std::io::Result<Reply> {
        self.roundtrip(&simple_request(sql))
    }

    /// Unnamed extended cycle with text parameters.
    pub fn extended(&mut self, sql: &str, params: &[String]) -> std::io::Result<Reply> {
        self.roundtrip(&extended_request(sql, params))
    }

    /// Parse `sql` once as the named statement `name`.
    pub fn prepare(&mut self, name: &str, sql: &str) -> std::io::Result<Reply> {
        let mut buf = Vec::new();
        parse_frame(&mut buf, name, sql);
        frame(&mut buf, b'S', |_| {});
        self.roundtrip(&buf)
    }

    /// Bind+Execute+Sync on a statement prepared with [`PgClient::prepare`].
    pub fn execute_named(&mut self, name: &str, params: &[String]) -> std::io::Result<Reply> {
        self.roundtrip(&named_request(name, params))
    }

    /// Orderly disconnect.
    pub fn terminate(mut self) {
        let mut buf = Vec::new();
        frame(&mut buf, b'X', |_| {});
        let _ = self.stream.write_all(&buf);
    }
}
