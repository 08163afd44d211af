//! A real reply parser for the generator: every reply is read, framed and
//! checked against the request that caused it, not counted by terminator.

use std::io::{self, Read};

use crate::stream::{key_tag, Kind, Op};

/// What one request's reply amounted to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A `set` acknowledged with `STORED`.
    Stored,
    /// A `get` answered with the key's value.
    Hit,
    /// A `get` answered with a bare `END`.
    Miss,
    /// Refused, errored, or answered with a wrong-key or wrong-length value.
    Failed,
}

/// Buffered reader of memcached text replies from `src`.
pub struct ReplyReader<R> {
    src: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// No reply announces more than the server's own value cap.
const MAX_VALUE: usize = 1 << 20;

fn parse_decimal(digits: &[u8]) -> Option<u64> {
    if digits.is_empty() || digits.len() > 19 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    Some(digits.iter().fold(0, |n, d| n * 10 + u64::from(d - b'0')))
}

fn desync(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("reply stream desynchronised: {what}"),
    )
}

impl<R: Read> ReplyReader<R> {
    pub fn new(src: R) -> Self {
        ReplyReader {
            src,
            buf: vec![0; 64 << 10],
            start: 0,
            end: 0,
        }
    }

    /// Reads more bytes; the unread window stays contiguous.
    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.src.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "peer closed mid-reply",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// The next line without its CRLF, as a range of `buf`.
    fn line(&mut self) -> io::Result<(usize, usize)> {
        // Bytes of the unread window already known to hold no newline;
        // `fill` may move the window but keeps its contents.
        let mut seen = 0;
        loop {
            let window = &self.buf[self.start + seen..self.end];
            if let Some(i) = window.iter().position(|&b| b == b'\n') {
                let (from, nl) = (self.start, self.start + seen + i);
                self.start = nl + 1;
                let to = if nl > from && self.buf[nl - 1] == b'\r' {
                    nl - 1
                } else {
                    nl
                };
                return Ok((from, to));
            }
            seen = self.end - self.start;
            self.fill()?;
        }
    }

    /// Exactly `n` bytes, as a range of `buf`.
    fn block(&mut self, n: usize) -> io::Result<(usize, usize)> {
        while self.end - self.start < n {
            self.fill()?;
        }
        let from = self.start;
        self.start += n;
        Ok((from, from + n))
    }

    /// One raw reply line (admin commands such as `stats` and `sync`).
    pub fn read_line(&mut self) -> io::Result<String> {
        let (a, b) = self.line()?;
        Ok(String::from_utf8_lossy(&self.buf[a..b]).into_owned())
    }

    /// Reads the reply to `op` and checks it: a `set` must be `STORED`; a
    /// `get` must be `END`, or one `VALUE` whose key is the requested key,
    /// whose length is `value_len` and whose bytes start with the key's tag.
    /// `Err` means the stream can no longer be framed.
    pub fn expect(&mut self, op: Op, value_len: usize) -> io::Result<Outcome> {
        let (a, b) = self.line()?;
        if op.kind() != Kind::Get {
            return Ok(if &self.buf[a..b] == b"STORED" {
                Outcome::Stored
            } else {
                Outcome::Failed
            });
        }
        if &self.buf[a..b] == b"END" {
            return Ok(Outcome::Miss);
        }
        let Some(header) = self.buf[a..b].strip_prefix(b"VALUE ") else {
            // An error line is the whole reply to this request.
            return Ok(Outcome::Failed);
        };
        let mut fields = header.split(|&c| c == b' ');
        let key_ok = fields
            .next()
            .and_then(|f| f.strip_prefix(b"k"))
            .and_then(parse_decimal)
            == Some(op.key());
        let len: usize = fields
            .nth(1)
            .and_then(parse_decimal)
            .and_then(|n| usize::try_from(n).ok())
            .filter(|&n| n <= MAX_VALUE)
            .ok_or_else(|| desync("VALUE header without a usable length"))?;
        let (d0, d1) = self.block(len + 2)?;
        let data = &self.buf[d0..d1];
        let framed = data[len..] == *b"\r\n";
        let value_ok = len == value_len && len >= 8 && data[..8] == key_tag(op.key());
        if !framed {
            return Err(desync("value not followed by CRLF"));
        }
        let (e0, e1) = self.line()?;
        if &self.buf[e0..e1] != b"END" {
            return Err(desync("value not followed by END"));
        }
        Ok(if key_ok && value_ok {
            Outcome::Hit
        } else {
            Outcome::Failed
        })
    }
}

/// Negative self-test, run before every measurement: a reply with a
/// corrupted byte, a short value and a `SERVER_ERROR` line must each count
/// exactly one failure, and the good replies around them none.
/// `MBENCH_BREAK_SELFTEST=1` flips one expected byte, which must make the
/// run fail — the check of the checker.
pub fn self_test() -> Result<(), String> {
    use crate::stream::push_value;
    let ops = [
        Op::new(Kind::Get, 7),
        Op::new(Kind::Get, 8),
        Op::new(Kind::Get, 9),
        Op::new(Kind::Put, 10),
        Op::new(Kind::Get, 11),
        Op::new(Kind::Put, 12),
    ];
    let mut wire = Vec::new();
    let value_reply = |wire: &mut Vec<u8>, key: u64, len: usize| {
        wire.extend_from_slice(format!("VALUE k{key} 0 {len}\r\n").as_bytes());
        push_value(wire, key, 0, len);
        wire.extend_from_slice(b"\r\nEND\r\n");
    };
    value_reply(&mut wire, 7, 32); // good
    let at = wire.len();
    value_reply(&mut wire, 8, 32); // corrupted: one byte of the key tag flipped
    let header = format!("VALUE k{} 0 {}\r\n", 8, 32).len();
    wire[at + header] ^= 1;
    value_reply(&mut wire, 9, 24); // short value
    wire.extend_from_slice(b"SERVER_ERROR out of worker ids (shard 0)\r\n");
    wire.extend_from_slice(b"END\r\n"); // miss
    wire.extend_from_slice(b"STORED\r\n");
    let mut want = [
        Outcome::Hit,
        Outcome::Failed,
        Outcome::Failed,
        Outcome::Failed,
        Outcome::Miss,
        Outcome::Stored,
    ];
    if std::env::var_os("MBENCH_BREAK_SELFTEST").is_some() {
        want[1] = Outcome::Hit;
    }
    let mut r = ReplyReader::new(&wire[..]);
    for (op, want) in ops.iter().zip(want) {
        let got = r
            .expect(*op, 32)
            .map_err(|e| format!("verifier self-test: {e}"))?;
        if got != want {
            return Err(format!(
                "verifier self-test: reply to {op:?} judged {got:?}, expected {want:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::push_value;

    /// Hands out its bytes a few at a time, like a socket under load.
    struct Trickle<'a>(&'a [u8], usize);

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.1.min(self.0.len()).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn self_test_passes() {
        assert_eq!(self_test(), Ok(()));
    }

    #[test]
    fn replies_split_across_reads_still_parse() {
        let mut wire = Vec::new();
        for key in 1..=50u64 {
            wire.extend_from_slice(format!("VALUE k{key} 0 100\r\n").as_bytes());
            push_value(&mut wire, key, 0, 100);
            wire.extend_from_slice(b"\r\nEND\r\nSTORED\r\n");
        }
        for step in [1, 3, 7, 1000] {
            let mut r = ReplyReader::new(Trickle(&wire, step));
            r.buf = vec![0; 32]; // force compaction and growth
            for key in 1..=50u64 {
                assert_eq!(
                    r.expect(Op::new(Kind::Get, key), 100).unwrap(),
                    Outcome::Hit
                );
                assert_eq!(
                    r.expect(Op::new(Kind::Put, key), 100).unwrap(),
                    Outcome::Stored
                );
            }
            assert!(
                r.expect(Op::new(Kind::Get, 1), 100).is_err(),
                "EOF is an error"
            );
        }
    }

    #[test]
    fn wrong_key_and_unframed_values() {
        let mut wire = b"VALUE k2 0 16\r\n".to_vec();
        push_value(&mut wire, 2, 0, 16);
        wire.extend_from_slice(b"\r\nEND\r\n");
        let mut r = ReplyReader::new(&wire[..]);
        assert_eq!(
            r.expect(Op::new(Kind::Get, 3), 16).unwrap(),
            Outcome::Failed
        );
        let mut r = ReplyReader::new(&b"VALUE k2 0 4\r\nabcdefEND\r\n"[..]);
        assert!(r.expect(Op::new(Kind::Get, 2), 4).is_err());
    }
}
