//! memcached text-protocol request framing.
//!
//! Bytes arrive from the socket in arbitrary chunks; this module reassembles
//! them into complete requests. It tolerates everything a real client (or
//! `printf | nc`) throws at it: several pipelined commands in one packet, a
//! command line or data block split across packets, a CRLF split exactly
//! between the `\r` and the `\n`, bare-`\n` line endings, data blocks whose
//! length does not match the announced byte count, and announced byte counts
//! far beyond the configured cap (those are discarded as they stream in —
//! the value never accumulates in memory).

/// Command lines longer than this are rejected (memcached caps at 1024 too;
/// keys are ≤ 32 bytes here, so this is generous).
pub const MAX_LINE: usize = 1024;

/// One framed request, ready for execution.
#[derive(Debug, PartialEq, Eq)]
pub enum Request {
    /// A complete command line (CRLF stripped, `noreply` stripped) plus its
    /// data block (empty for non-storage commands).
    Cmd {
        line: String,
        data: Vec<u8>,
        noreply: bool,
    },
    /// A storage command whose data block was not terminated by CRLF where
    /// the announced length said it would end. The stream has been resynced
    /// to the next line; reply `CLIENT_ERROR bad data chunk`.
    BadDataChunk,
    /// A storage command whose announced length exceeded the configured
    /// maximum. The value bytes were discarded; reply `SERVER_ERROR object
    /// too large for cache`.
    TooLarge,
    /// A command line exceeded [`MAX_LINE`] without a newline. The
    /// connection should be closed after replying.
    LineTooLong,
}

/// Streaming reassembler: feed raw socket bytes in, pull [`Request`]s out.
pub struct RequestReader {
    buf: Vec<u8>,
    /// Remaining value bytes of an oversized storage command being discarded.
    skip: usize,
    /// When true, a discard is waiting for its trailing newline.
    skip_trailer: bool,
    /// Whether the active discard is an oversized value (reported as
    /// [`Request::TooLarge`]) rather than a silent length-mismatch resync.
    skip_oversize: bool,
    max_value: usize,
}

impl RequestReader {
    pub fn new(max_value: usize) -> Self {
        RequestReader {
            buf: Vec::new(),
            skip: 0,
            skip_trailer: false,
            skip_oversize: false,
            max_value,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (for tests / introspection).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Extracts the next complete request, or `None` if more bytes are
    /// needed. Call repeatedly to drain pipelined commands.
    pub fn next_request(&mut self) -> Option<Request> {
        // Finish any discard in progress first (oversized value or
        // length-mismatch resync).
        if self.skip > 0 || self.skip_trailer {
            let n = self.skip.min(self.buf.len());
            self.buf.drain(..n);
            self.skip -= n;
            if self.skip > 0 {
                return None; // more value bytes still in flight
            }
            self.skip_trailer = true;
            // Consume through the terminating newline.
            match self.buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.buf.drain(..=i);
                    self.skip_trailer = false;
                    if self.skip_oversize {
                        self.skip_oversize = false;
                        return Some(Request::TooLarge);
                    }
                    // Resync complete; fall through to the next command.
                }
                None => {
                    self.buf.clear(); // mismatch garbage; keep discarding
                    return None;
                }
            }
        }

        let nl = match self.buf.iter().position(|&b| b == b'\n') {
            Some(i) => i,
            None if self.buf.len() > MAX_LINE => return Some(Request::LineTooLong),
            None => return None,
        };
        let mut line_end = nl;
        if line_end > 0 && self.buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        let line = String::from_utf8_lossy(&self.buf[..line_end]).into_owned();
        let mut tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        let noreply = tokens.last().is_some_and(|t| t == "noreply");
        if noreply {
            tokens.pop();
        }

        let is_storage = tokens
            .first()
            .is_some_and(|c| kvstore::protocol::verb(c).is_some_and(|v| v.has_data));
        let nbytes = if is_storage && tokens.len() >= 5 {
            tokens[4].parse::<usize>().ok()
        } else {
            None
        };

        let Some(nbytes) = nbytes else {
            // No data block follows: either a non-storage command, or a
            // malformed storage line the session will answer with
            // CLIENT_ERROR. Consume the line only.
            self.buf.drain(..=nl);
            return Some(Request::Cmd {
                line: tokens.join(" "),
                data: Vec::new(),
                noreply,
            });
        };

        if nbytes > self.max_value {
            // Discard the value as it streams in; never buffer it whole.
            self.buf.drain(..=nl);
            self.skip = nbytes;
            self.skip_trailer = false;
            self.skip_oversize = true;
            return self.next_request();
        }

        // Wait until the whole data block plus at least one terminator byte
        // is buffered.
        let data_start = nl + 1;
        let data_end = data_start + nbytes;
        if self.buf.len() < data_end + 1 {
            return None;
        }
        match self.buf[data_end] {
            b'\n' => {
                let data = self.buf[data_start..data_end].to_vec();
                self.buf.drain(..=data_end);
                Some(Request::Cmd {
                    line: tokens.join(" "),
                    data,
                    noreply,
                })
            }
            b'\r' => {
                // CRLF possibly split across packets: need one more byte.
                if self.buf.len() < data_end + 2 {
                    return None;
                }
                if self.buf[data_end + 1] == b'\n' {
                    let data = self.buf[data_start..data_end].to_vec();
                    self.buf.drain(..=data_end + 1);
                    Some(Request::Cmd {
                        line: tokens.join(" "),
                        data,
                        noreply,
                    })
                } else {
                    self.resync_after(data_end);
                    Some(Request::BadDataChunk)
                }
            }
            _ => {
                self.resync_after(data_end);
                Some(Request::BadDataChunk)
            }
        }
    }

    /// Length mismatch: drop everything through the next newline at or after
    /// `from`, so the reader realigns on the next command. If the newline is
    /// not buffered yet, arrange to keep discarding as bytes arrive.
    fn resync_after(&mut self, from: usize) {
        match self.buf[from..].iter().position(|&b| b == b'\n') {
            Some(i) => {
                self.buf.drain(..from + i + 1);
            }
            None => {
                self.buf.clear();
                self.skip = 0;
                self.skip_trailer = true;
                self.skip_oversize = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(line: &str, data: &[u8], noreply: bool) -> Request {
        Request::Cmd {
            line: line.into(),
            data: data.to_vec(),
            noreply,
        }
    }

    #[test]
    fn whole_request_in_one_chunk() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 5\r\nhello\r\n");
        assert_eq!(r.next_request(), Some(cmd("set k 0 0 5", b"hello", false)));
        assert_eq!(r.next_request(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn command_line_split_across_reads() {
        let mut r = RequestReader::new(1024);
        r.feed(b"get gre");
        assert_eq!(r.next_request(), None);
        r.feed(b"eting\r\n");
        assert_eq!(r.next_request(), Some(cmd("get greeting", b"", false)));
    }

    #[test]
    fn data_block_split_across_reads() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 11\r\nhell");
        assert_eq!(r.next_request(), None);
        r.feed(b"o worl");
        assert_eq!(r.next_request(), None);
        r.feed(b"d\r\n");
        assert_eq!(
            r.next_request(),
            Some(cmd("set k 0 0 11", b"hello world", false))
        );
    }

    #[test]
    fn crlf_split_between_cr_and_lf() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 2\r\nab\r");
        assert_eq!(r.next_request(), None, "CR buffered, LF in flight");
        r.feed(b"\n");
        assert_eq!(r.next_request(), Some(cmd("set k 0 0 2", b"ab", false)));
    }

    #[test]
    fn bare_lf_line_endings_accepted() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 2\nhi\nget k\n");
        assert_eq!(r.next_request(), Some(cmd("set k 0 0 2", b"hi", false)));
        assert_eq!(r.next_request(), Some(cmd("get k", b"", false)));
    }

    #[test]
    fn pipelined_commands_drain_in_order() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set a 0 0 1\r\nA\r\nset b 0 0 1\r\nB\r\nget a b\r\ndelete a\r\n");
        assert_eq!(r.next_request(), Some(cmd("set a 0 0 1", b"A", false)));
        assert_eq!(r.next_request(), Some(cmd("set b 0 0 1", b"B", false)));
        assert_eq!(r.next_request(), Some(cmd("get a b", b"", false)));
        assert_eq!(r.next_request(), Some(cmd("delete a", b"", false)));
        assert_eq!(r.next_request(), None);
    }

    #[test]
    fn noreply_is_stripped_and_flagged() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 1 0 1 noreply\r\nx\r\ndelete k noreply\r\n");
        assert_eq!(r.next_request(), Some(cmd("set k 1 0 1", b"x", true)));
        assert_eq!(r.next_request(), Some(cmd("delete k", b"", true)));
    }

    #[test]
    fn value_longer_than_announced_is_bad_chunk_and_resyncs() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 2\r\nabcdef\r\nget k\r\n");
        assert_eq!(r.next_request(), Some(Request::BadDataChunk));
        // Stream realigned on the next command.
        assert_eq!(r.next_request(), Some(cmd("get k", b"", false)));
    }

    #[test]
    fn bad_chunk_with_trailer_not_yet_arrived() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k 0 0 2\r\nabZ");
        assert_eq!(r.next_request(), Some(Request::BadDataChunk));
        // Garbage continues; everything up to the newline is discarded and
        // the command after it parses normally.
        r.feed(b"ZZZ\r\nget k\r\n");
        assert_eq!(r.next_request(), Some(cmd("get k", b"", false)));
    }

    #[test]
    fn oversized_value_is_discarded_streaming() {
        let mut r = RequestReader::new(8);
        r.feed(b"set big 0 0 1000\r\n");
        assert_eq!(r.next_request(), None);
        // Value streams in over several packets; buffer must not grow.
        for _ in 0..100 {
            r.feed(&[b'x'; 10]);
            assert!(r.buffered() <= 10, "oversize value accumulated");
            let _ = r.next_request();
        }
        r.feed(b"\r\nget k\r\n");
        assert_eq!(r.next_request(), Some(Request::TooLarge));
        assert_eq!(r.next_request(), Some(cmd("get k", b"", false)));
    }

    #[test]
    fn malformed_storage_line_has_no_data_block() {
        let mut r = RequestReader::new(1024);
        r.feed(b"set k zero 0 nope\r\nget k\r\n");
        // Passed through for the session to answer CLIENT_ERROR; the next
        // line is a fresh command, not swallowed as data.
        assert_eq!(r.next_request(), Some(cmd("set k zero 0 nope", b"", false)));
        assert_eq!(r.next_request(), Some(cmd("get k", b"", false)));
    }

    #[test]
    fn unterminated_giant_line_rejected() {
        let mut r = RequestReader::new(1024);
        r.feed(&[b'a'; MAX_LINE + 1]);
        assert_eq!(r.next_request(), Some(Request::LineTooLong));
    }

    #[test]
    fn empty_line_is_a_command() {
        let mut r = RequestReader::new(1024);
        r.feed(b"\r\n");
        assert_eq!(r.next_request(), Some(cmd("", b"", false)));
    }
}
