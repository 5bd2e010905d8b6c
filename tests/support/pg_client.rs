//! A minimal blocking Postgres-wire-protocol v3 client for tests and
//! benches: startup, simple query, the extended cycle, and CancelRequest.
//! Text format only, `std::net` only — deliberately independent of the
//! server's own encoder/decoder so the tests exercise the wire bytes, not
//! a shared implementation.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One backend message: tag byte plus body (length prefix stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backend {
    pub tag: u8,
    pub body: Vec<u8>,
}

impl Backend {
    /// Fields of an ErrorResponse body: `(code char, value)` pairs.
    pub fn error_fields(&self) -> Vec<(u8, String)> {
        assert_eq!(self.tag, b'E', "not an ErrorResponse: {:?}", self);
        let mut out = Vec::new();
        let mut at = 0;
        while at < self.body.len() && self.body[at] != 0 {
            let code = self.body[at];
            at += 1;
            let nul = self.body[at..].iter().position(|&b| b == 0).unwrap();
            out.push((
                code,
                String::from_utf8_lossy(&self.body[at..at + nul]).into_owned(),
            ));
            at += nul + 1;
        }
        out
    }

    /// The SQLSTATE of an ErrorResponse.
    pub fn sqlstate(&self) -> String {
        self.error_fields()
            .into_iter()
            .find(|(c, _)| *c == b'C')
            .map(|(_, v)| v)
            .expect("ErrorResponse carries a SQLSTATE")
    }

    /// The primary message of an ErrorResponse.
    pub fn error_message(&self) -> String {
        self.error_fields()
            .into_iter()
            .find(|(c, _)| *c == b'M')
            .map(|(_, v)| v)
            .expect("ErrorResponse carries a message")
    }

    /// Decode a DataRow body into text cells (`None` = NULL).
    pub fn data_row(&self) -> Vec<Option<String>> {
        assert_eq!(self.tag, b'D', "not a DataRow: {:?}", self);
        let mut at = 0usize;
        let n = i16::from_be_bytes(self.body[at..at + 2].try_into().unwrap());
        at += 2;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let len = i32::from_be_bytes(self.body[at..at + 4].try_into().unwrap());
            at += 4;
            if len < 0 {
                out.push(None);
            } else {
                let len = len as usize;
                out.push(Some(
                    String::from_utf8_lossy(&self.body[at..at + len]).into_owned(),
                ));
                at += len;
            }
        }
        out
    }

    /// Column names of a RowDescription body.
    pub fn column_names(&self) -> Vec<String> {
        assert_eq!(self.tag, b'T', "not a RowDescription: {:?}", self);
        let mut at = 0usize;
        let n = i16::from_be_bytes(self.body[at..at + 2].try_into().unwrap());
        at += 2;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let nul = self.body[at..].iter().position(|&b| b == 0).unwrap();
            out.push(String::from_utf8_lossy(&self.body[at..at + nul]).into_owned());
            // name NUL + table oid(4) + attnum(2) + type oid(4) + len(2)
            // + typmod(4) + format(2)
            at += nul + 1 + 18;
        }
        out
    }

    /// The tag string of a CommandComplete body.
    pub fn command_tag(&self) -> String {
        assert_eq!(self.tag, b'C', "not a CommandComplete: {:?}", self);
        let nul = self.body.iter().position(|&b| b == 0).unwrap();
        String::from_utf8_lossy(&self.body[..nul]).into_owned()
    }
}

/// Everything the backend sent for one query cycle, up to ReadyForQuery.
#[derive(Debug, Default)]
pub struct Cycle {
    pub messages: Vec<Backend>,
}

impl Cycle {
    pub fn rows(&self) -> Vec<Vec<Option<String>>> {
        self.messages
            .iter()
            .filter(|m| m.tag == b'D')
            .map(Backend::data_row)
            .collect()
    }

    pub fn row_description(&self) -> Option<&Backend> {
        self.messages.iter().find(|m| m.tag == b'T')
    }

    pub fn command_tags(&self) -> Vec<String> {
        self.messages
            .iter()
            .filter(|m| m.tag == b'C')
            .map(Backend::command_tag)
            .collect()
    }

    pub fn errors(&self) -> Vec<&Backend> {
        self.messages.iter().filter(|m| m.tag == b'E').collect()
    }

    pub fn first_error(&self) -> &Backend {
        self.errors().first().expect("expected an ErrorResponse")
    }
}

/// A connected, authenticated pgwire client.
pub struct PgClient {
    stream: TcpStream,
    pub pid: i32,
    pub secret: i32,
    server: SocketAddr,
}

impl PgClient {
    /// Connect and run the startup handshake through ReadyForQuery.
    pub fn connect(addr: SocketAddr) -> std::io::Result<PgClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut body = Vec::new();
        body.extend_from_slice(&196608i32.to_be_bytes());
        for (k, v) in [("user", "test"), ("database", "rdb")] {
            body.extend_from_slice(k.as_bytes());
            body.push(0);
            body.extend_from_slice(v.as_bytes());
            body.push(0);
        }
        body.push(0);
        let mut pkt = ((body.len() + 4) as i32).to_be_bytes().to_vec();
        pkt.extend_from_slice(&body);
        stream.write_all(&pkt)?;
        let mut client = PgClient {
            stream,
            pid: 0,
            secret: 0,
            server: addr,
        };
        loop {
            let m = client.read_message()?;
            match m.tag {
                b'K' => {
                    client.pid = i32::from_be_bytes(m.body[0..4].try_into().unwrap());
                    client.secret = i32::from_be_bytes(m.body[4..8].try_into().unwrap());
                }
                b'Z' => return Ok(client),
                b'E' => {
                    return Err(std::io::Error::other(format!(
                        "startup refused: {}",
                        m.error_message()
                    )))
                }
                _ => {}
            }
        }
    }

    /// Raw bytes straight onto the socket (fuzzing, hand-built frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Send one tagged frontend message.
    pub fn send(&mut self, tag: u8, body: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(&frame::tagged(tag, body))
    }

    /// Read one backend message (blocking).
    pub fn read_message(&mut self) -> std::io::Result<Backend> {
        let mut head = [0u8; 5];
        self.stream.read_exact(&mut head)?;
        let tag = head[0];
        let len = i32::from_be_bytes(head[1..5].try_into().unwrap()) as usize;
        let mut body = vec![0u8; len - 4];
        self.stream.read_exact(&mut body)?;
        Ok(Backend { tag, body })
    }

    /// Read messages until ReadyForQuery (exclusive of it).
    pub fn read_cycle(&mut self) -> std::io::Result<Cycle> {
        let mut cycle = Cycle::default();
        loop {
            let m = self.read_message()?;
            if m.tag == b'Z' {
                return Ok(cycle);
            }
            cycle.messages.push(m);
        }
    }

    /// Simple query: send `Q`, collect the whole cycle.
    pub fn query(&mut self, sql: &str) -> std::io::Result<Cycle> {
        self.send_raw(&frame::query(sql))?;
        self.read_cycle()
    }

    /// Extended cycle: Parse + Bind + Describe(portal) + Execute + Sync,
    /// with text parameters (`None` = NULL), collected through
    /// ReadyForQuery.
    pub fn extended(&mut self, sql: &str, params: &[Option<&str>]) -> std::io::Result<Cycle> {
        self.send_parse("", sql, &[])?;
        self.send_bind("", "", params)?;
        self.send_describe(b'P', "")?;
        self.send_execute("", 0)?;
        self.send_sync()?;
        self.read_cycle()
    }

    pub fn send_parse(&mut self, name: &str, sql: &str, oids: &[i32]) -> std::io::Result<()> {
        self.send_raw(&frame::parse(name, sql, oids))
    }

    pub fn send_bind(
        &mut self,
        portal: &str,
        statement: &str,
        params: &[Option<&str>],
    ) -> std::io::Result<()> {
        self.send_raw(&frame::bind(portal, statement, params))
    }

    pub fn send_describe(&mut self, kind: u8, name: &str) -> std::io::Result<()> {
        self.send_raw(&frame::describe(kind, name))
    }

    pub fn send_execute(&mut self, portal: &str, max_rows: i32) -> std::io::Result<()> {
        self.send_raw(&frame::execute(portal, max_rows))
    }

    pub fn send_sync(&mut self) -> std::io::Result<()> {
        self.send_raw(&frame::sync())
    }

    /// Fire a CancelRequest at this client's backend over a fresh
    /// connection (the protocol's out-of-band cancel path).
    pub fn cancel(&self) -> std::io::Result<()> {
        let mut s = TcpStream::connect(self.server)?;
        let mut pkt = Vec::new();
        pkt.extend_from_slice(&16i32.to_be_bytes());
        pkt.extend_from_slice(&80877102i32.to_be_bytes());
        pkt.extend_from_slice(&self.pid.to_be_bytes());
        pkt.extend_from_slice(&self.secret.to_be_bytes());
        s.write_all(&pkt)?;
        Ok(())
    }

    /// Orderly disconnect.
    pub fn terminate(mut self) {
        let _ = self.send(b'X', &[]);
    }

    pub fn set_read_timeout(&self, d: Option<Duration>) {
        let _ = self.stream.set_read_timeout(d);
    }
}

/// Frontend messages as bytes, for callers that pipeline several frames in
/// one write or cut a frame across writes.
pub mod frame {
    pub fn tagged(tag: u8, body: &[u8]) -> Vec<u8> {
        let mut pkt = vec![tag];
        pkt.extend_from_slice(&((body.len() + 4) as i32).to_be_bytes());
        pkt.extend_from_slice(body);
        pkt
    }

    fn cstr(body: &mut Vec<u8>, s: &str) {
        body.extend_from_slice(s.as_bytes());
        body.push(0);
    }

    pub fn query(sql: &str) -> Vec<u8> {
        let mut body = Vec::new();
        cstr(&mut body, sql);
        tagged(b'Q', &body)
    }

    pub fn parse(name: &str, sql: &str, oids: &[i32]) -> Vec<u8> {
        let mut body = Vec::new();
        cstr(&mut body, name);
        cstr(&mut body, sql);
        body.extend_from_slice(&(oids.len() as i16).to_be_bytes());
        for oid in oids {
            body.extend_from_slice(&oid.to_be_bytes());
        }
        tagged(b'P', &body)
    }

    /// Text-format parameters (`None` = NULL), text-format results.
    pub fn bind(portal: &str, statement: &str, params: &[Option<&str>]) -> Vec<u8> {
        let mut body = Vec::new();
        cstr(&mut body, portal);
        cstr(&mut body, statement);
        body.extend_from_slice(&0i16.to_be_bytes()); // all-text param formats
        body.extend_from_slice(&(params.len() as i16).to_be_bytes());
        for p in params {
            match p {
                None => body.extend_from_slice(&(-1i32).to_be_bytes()),
                Some(text) => {
                    body.extend_from_slice(&(text.len() as i32).to_be_bytes());
                    body.extend_from_slice(text.as_bytes());
                }
            }
        }
        body.extend_from_slice(&0i16.to_be_bytes()); // all-text result formats
        tagged(b'B', &body)
    }

    /// Describe (`D`) or Close (`C`) of a statement (`S`) or portal (`P`).
    fn named(tag: u8, kind: u8, name: &str) -> Vec<u8> {
        let mut body = vec![kind];
        cstr(&mut body, name);
        tagged(tag, &body)
    }

    pub fn describe(kind: u8, name: &str) -> Vec<u8> {
        named(b'D', kind, name)
    }

    pub fn close(kind: u8, name: &str) -> Vec<u8> {
        named(b'C', kind, name)
    }

    pub fn execute(portal: &str, max_rows: i32) -> Vec<u8> {
        let mut body = Vec::new();
        cstr(&mut body, portal);
        body.extend_from_slice(&max_rows.to_be_bytes());
        tagged(b'E', &body)
    }

    pub fn sync() -> Vec<u8> {
        tagged(b'S', &[])
    }

    pub fn flush() -> Vec<u8> {
        tagged(b'H', &[])
    }
}
