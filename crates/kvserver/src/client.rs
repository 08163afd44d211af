//! Closed-loop memcached text-protocol client over a blocking socket.
//!
//! Used by the wire tests and the Fig. 10 wire benchmark; issues one request
//! and waits for its reply (except `*_noreply`, which streams).

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One socket, one fd: reads go through the buffer, writes through
/// [`BufReader::get_mut`]. The connection-scale test holds ten thousand of
/// these in one process, so a cloned-fd reader would double the bill.
pub struct WireClient {
    stream: BufReader<TcpStream>,
}

/// One request in a pipelined [`WireClient::round`].
pub enum PipeOp<'a> {
    Get(&'a str),
    Set(&'a str, &'a [u8]),
}

/// One `VALUE <key> <flags> <len> [<cas>]` record of a retrieval reply.
struct Record {
    flags: u32,
    cas: Option<u64>,
    data: Vec<u8>,
}

fn bad_reply(context: &str, got: &str) -> std::io::Error {
    std::io::Error::new(
        ErrorKind::InvalidData,
        format!("{context}: unexpected reply {got:?}"),
    )
}

impl WireClient {
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_write_timeout(Some(Duration::from_secs(10)))?;
        Ok(WireClient {
            stream: BufReader::new(stream),
        })
    }

    /// Sends raw bytes verbatim — the escape hatch the framing tests use to
    /// split requests at hostile offsets.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.get_mut().write_all(bytes)
    }

    /// Overrides the socket read timeout (`None` blocks forever). The
    /// robustness tests poll with short timeouts while dripping bytes.
    pub fn set_read_timeout(&mut self, dur: Option<Duration>) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(dur)
    }

    /// Reads whatever reply bytes are available into `buf`, returning the
    /// count (0 = peer closed). Load generators use this to drain pipelined
    /// replies in bulk instead of line-by-line.
    pub fn read_some(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.read(buf)
    }

    /// Reads one CRLF-terminated reply line (terminator stripped).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.stream.read_line(&mut line)?;
        if n == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// `set` and wait for the one-line reply (`STORED`, an error, …).
    pub fn set(&mut self, key: &str, flags: u32, value: &[u8]) -> std::io::Result<String> {
        self.send_raw(format!("set {key} {flags} 0 {}\r\n", value.len()).as_bytes())?;
        self.send_raw(value)?;
        self.send_raw(b"\r\n")?;
        self.read_line()
    }

    /// Fire-and-forget `set`: no reply is read (none is sent).
    pub fn set_noreply(&mut self, key: &str, flags: u32, value: &[u8]) -> std::io::Result<()> {
        self.send_raw(format!("set {key} {flags} 0 {} noreply\r\n", value.len()).as_bytes())?;
        self.send_raw(value)?;
        self.send_raw(b"\r\n")
    }

    /// A one-key retrieval's reply: `None` for a bare `END`, else the
    /// `VALUE` header, the value (its `\r\n` checked) and the closing `END`.
    fn read_single(&mut self, verb: &str) -> std::io::Result<Option<Record>> {
        let head = self.read_line()?;
        if head == "END" {
            return Ok(None);
        }
        let bad = || bad_reply(verb, &head);
        let mut parts = head.split_whitespace();
        let (Some("VALUE"), Some(_key), Some(flags), Some(len)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        let flags: u32 = flags.parse().map_err(|_| bad())?;
        let len: usize = len.parse().map_err(|_| bad())?;
        let cas = parts.next().map(|c| c.parse().map_err(|_| bad()));
        let mut data = vec![0u8; len + 2]; // value + CRLF
        self.stream.read_exact(&mut data)?;
        if &data[len..] != b"\r\n" {
            return Err(bad());
        }
        data.truncate(len);
        let tail = self.read_line()?;
        if tail != "END" {
            return Err(bad_reply(verb, &tail));
        }
        Ok(Some(Record {
            flags,
            cas: cas.transpose()?,
            data,
        }))
    }

    /// `get`, returning `(flags, value)` for a hit and `None` for a miss.
    pub fn get(&mut self, key: &str) -> std::io::Result<Option<(u32, Vec<u8>)>> {
        self.send_raw(format!("get {key}\r\n").as_bytes())?;
        Ok(self.read_single("get")?.map(|r| (r.flags, r.data)))
    }

    /// One pipelined round: writes every request in a single burst, then
    /// reads every reply in order. This is the shape under which a server's
    /// request batching (and group commit) can actually form batches — the
    /// one-op-per-RTT methods above never leave two requests in flight.
    pub fn round(&mut self, ops: &[PipeOp<'_>]) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(ops.len() * 32);
        for op in ops {
            match op {
                PipeOp::Get(k) => {
                    buf.extend_from_slice(b"get ");
                    buf.extend_from_slice(k.as_bytes());
                    buf.extend_from_slice(b"\r\n");
                }
                PipeOp::Set(k, v) => {
                    buf.extend_from_slice(format!("set {k} 0 0 {}\r\n", v.len()).as_bytes());
                    buf.extend_from_slice(v);
                    buf.extend_from_slice(b"\r\n");
                }
            }
        }
        self.stream.get_mut().write_all(&buf)?;
        for op in ops {
            match op {
                PipeOp::Set(..) => {
                    let line = self.read_line()?;
                    if line != "STORED" {
                        return Err(bad_reply("pipelined set", &line));
                    }
                }
                PipeOp::Get(..) => {
                    self.read_single("pipelined get")?;
                }
            }
        }
        Ok(())
    }

    /// `delete`, returning the reply line (`DELETED` / `NOT_FOUND`).
    pub fn delete(&mut self, key: &str) -> std::io::Result<String> {
        self.send_raw(format!("delete {key}\r\n").as_bytes())?;
        self.read_line()
    }

    // ---- detectable operations (exactly-once retries) -------------------
    //
    // Wire contract: at most ONE outstanding rid-carrying mutation per
    // session — wait for rid n's reply before sending rid n+1. The server
    // durably retains only the newest rid per (session, shard); pipelining
    // two rid mutations and crashing before either ack loses the earlier
    // reply, and its replay gets `SERVER_ERROR stale request id` instead.
    // This client is synchronous (every rid method reads its reply before
    // returning), so it satisfies the contract by construction.

    /// Attaches a durable session id: subsequent mutations sent with a
    /// `rid=<n>` token dedupe against the server's descriptor table. Call
    /// again after reconnecting to resume the same identity.
    pub fn session(&mut self, sid: u64) -> std::io::Result<()> {
        self.send_raw(format!("session {sid}\r\n").as_bytes())?;
        let line = self.read_line()?;
        if line == format!("SESSION {sid}") {
            Ok(())
        } else {
            Err(bad_reply("session", &line))
        }
    }

    /// Detaches the durable session id attached by [`WireClient::session`],
    /// releasing its slot against the server's session cap. Subsequent
    /// mutations are sessionless until a new attach.
    pub fn session_close(&mut self) -> std::io::Result<()> {
        self.send_raw(b"session close\r\n")?;
        let line = self.read_line()?;
        if line == "CLOSED" {
            Ok(())
        } else {
            Err(bad_reply("session close", &line))
        }
    }

    /// `set` carrying a request id; safe to blindly resend after a crash.
    pub fn set_rid(
        &mut self,
        key: &str,
        flags: u32,
        value: &[u8],
        rid: u64,
    ) -> std::io::Result<String> {
        self.send_raw(format!("set {key} {flags} 0 {} rid={rid}\r\n", value.len()).as_bytes())?;
        self.send_raw(value)?;
        self.send_raw(b"\r\n")?;
        self.read_line()
    }

    /// `cas` (compare-and-swap on the id from [`WireClient::gets`]),
    /// returning the reply line (`STORED` / `EXISTS` / `NOT_FOUND`).
    /// `rid` tags the request for exactly-once retry.
    pub fn cas(
        &mut self,
        key: &str,
        flags: u32,
        value: &[u8],
        casid: u64,
        rid: Option<u64>,
    ) -> std::io::Result<String> {
        let tag = rid.map(|r| format!(" rid={r}")).unwrap_or_default();
        self.send_raw(format!("cas {key} {flags} 0 {} {casid}{tag}\r\n", value.len()).as_bytes())?;
        self.send_raw(value)?;
        self.send_raw(b"\r\n")?;
        self.read_line()
    }

    /// `gets`: like [`WireClient::get`] but returns `(flags, cas, value)`.
    pub fn gets(&mut self, key: &str) -> std::io::Result<Option<(u32, u64, Vec<u8>)>> {
        self.send_raw(format!("gets {key}\r\n").as_bytes())?;
        let Some(r) = self.read_single("gets")? else {
            return Ok(None);
        };
        let cas = r
            .cas
            .ok_or_else(|| bad_reply("gets", "a VALUE line without a cas"))?;
        Ok(Some((r.flags, cas, r.data)))
    }

    /// `incr`/`decr` by `delta`, optionally carrying a request id. Returns
    /// the reply line: the new value in decimal, or `NOT_FOUND` / an error.
    pub fn arith(
        &mut self,
        incr: bool,
        key: &str,
        delta: u64,
        rid: Option<u64>,
    ) -> std::io::Result<String> {
        let verb = if incr { "incr" } else { "decr" };
        let tag = rid.map(|r| format!(" rid={r}")).unwrap_or_default();
        self.send_raw(format!("{verb} {key} {delta}{tag}\r\n").as_bytes())?;
        self.read_line()
    }

    /// `stats`, parsed into `(name, value)` pairs.
    pub fn stats(&mut self) -> std::io::Result<Vec<(String, u64)>> {
        self.send_raw(b"stats\r\n")?;
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == "END" {
                return Ok(out);
            }
            let mut parts = line.split_whitespace();
            let (Some("STAT"), Some(name), Some(value)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(bad_reply("stats", &line));
            };
            let value: u64 = value.parse().map_err(|_| bad_reply("stats value", &line))?;
            out.push((name.to_string(), value));
        }
    }

    /// Epoch-sync barrier: when this returns `Ok`, every mutation this
    /// server acked before the call is persistent.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.send_raw(b"sync\r\n")?;
        let line = self.read_line()?;
        if line == "SYNCED" {
            Ok(())
        } else {
            Err(bad_reply("sync", &line))
        }
    }

    /// Polite hang-up.
    pub fn quit(mut self) -> std::io::Result<()> {
        self.send_raw(b"quit\r\n")
    }
}
