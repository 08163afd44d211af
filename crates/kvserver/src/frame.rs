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
const MAX_LINE: usize = 1024;

/// One framed request, ready for execution, borrowed from the reader
/// ([`RequestReader::next_frame`]): the data block where it lies in the
/// buffer, the line from the reader's reused line text.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete command line (CRLF, surrounding whitespace and `noreply`
    /// stripped; the whitespace between tokens as sent — the session
    /// tokenizes on it) plus its data block (empty for non-storage
    /// commands).
    Cmd {
        line: &'a str,
        data: &'a [u8],
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

/// A [`Frame`] that owns its bytes ([`RequestReader::next_request`]).
#[derive(Debug, PartialEq, Eq)]
pub enum Request {
    Cmd {
        line: String,
        data: Vec<u8>,
        noreply: bool,
    },
    BadDataChunk,
    TooLarge,
    LineTooLong,
}

impl Frame<'_> {
    fn to_request(self) -> Request {
        match self {
            Frame::Cmd {
                line,
                data,
                noreply,
            } => Request::Cmd {
                line: line.to_owned(),
                data: data.to_vec(),
                noreply,
            },
            Frame::BadDataChunk => Request::BadDataChunk,
            Frame::TooLarge => Request::TooLarge,
            Frame::LineTooLong => Request::LineTooLong,
        }
    }
}

/// What framing needs to know of a command line.
struct LineShape {
    /// The command within the line's text: surrounding whitespace and a
    /// trailing `noreply` token trimmed off.
    span: std::ops::Range<usize>,
    noreply: bool,
    /// The data block length a storage command announces, if it parses.
    nbytes: Option<usize>,
}

impl LineShape {
    fn of(text: &str) -> LineShape {
        let at = text.len() - text.trim_start().len();
        let mut line = text.trim();
        let noreply = match line.strip_suffix("noreply") {
            Some(rest) if rest.is_empty() || rest.ends_with(char::is_whitespace) => {
                line = rest.trim_end();
                true
            }
            _ => false,
        };
        let mut tokens = line.split_whitespace();
        let is_storage = tokens
            .next()
            .is_some_and(|c| kvstore::protocol::verb(c).is_some_and(|v| v.has_data));
        let nbytes = match is_storage {
            true => tokens.nth(3).and_then(|t| t.parse::<usize>().ok()),
            false => None,
        };
        LineShape {
            span: at..at + line.len(),
            noreply,
            nbytes,
        }
    }
}

/// Streaming reassembler: feed raw socket bytes in, pull [`Frame`]s out.
pub struct RequestReader {
    buf: Vec<u8>,
    /// Cursor: `buf[..pos]` is consumed. Frames advance it; only `feed`
    /// moves bytes, so a backlog of any depth frames in linear time.
    pos: usize,
    /// The current command line as text (lossily transcoded if it was not
    /// UTF-8): what a frame's `line` borrows. Reused, so steady-state
    /// framing allocates nothing.
    line: String,
    /// Remaining value bytes of an oversized storage command being discarded.
    skip: usize,
    /// When true, a discard is waiting for its trailing newline.
    skip_trailer: bool,
    /// Whether the active discard is an oversized value (reported as
    /// [`Frame::TooLarge`]) rather than a silent length-mismatch resync.
    skip_oversize: bool,
    max_value: usize,
}

impl RequestReader {
    pub fn new(max_value: usize) -> Self {
        RequestReader {
            buf: Vec::new(),
            pos: 0,
            line: String::new(),
            skip: 0,
            skip_trailer: false,
            skip_oversize: false,
            max_value,
        }
    }

    /// Appends raw bytes read from the socket. Consumed bytes are dropped
    /// here, at most once per call and only once they are at least half
    /// the buffer — so each byte is moved at most once however deep the
    /// unframed backlog, and a drained buffer costs nothing to reset.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// [`RequestReader::next_frame`], owning its bytes.
    pub fn next_request(&mut self) -> Option<Request> {
        self.next_frame().map(Frame::to_request)
    }

    /// Extracts the next complete request, or `None` if more bytes are
    /// needed. Call repeatedly to drain pipelined commands. The frame
    /// borrows the reader: execute it (or copy it) before the next call.
    pub fn next_frame(&mut self) -> Option<Frame<'_>> {
        // Finish any discard in progress first (oversized value or
        // length-mismatch resync).
        if self.skip > 0 || self.skip_trailer {
            let n = self.skip.min(self.buffered());
            self.pos += n;
            self.skip -= n;
            if self.skip > 0 {
                return None; // more value bytes still in flight
            }
            self.skip_trailer = true;
            // Consume through the terminating newline.
            match self.find_newline(self.pos) {
                Some(i) => {
                    self.pos = i + 1;
                    self.skip_trailer = false;
                    if self.skip_oversize {
                        self.skip_oversize = false;
                        return Some(Frame::TooLarge);
                    }
                    // Resync complete; fall through to the next command.
                }
                None => {
                    self.pos = self.buf.len(); // mismatch garbage; keep discarding
                    return None;
                }
            }
        }

        let start = self.pos;
        let nl = match self.find_newline(start) {
            Some(i) => i,
            None if self.buffered() > MAX_LINE => return Some(Frame::LineTooLong),
            None => return None,
        };
        let mut line_end = nl;
        if line_end > start && self.buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        self.line.clear();
        self.line
            .push_str(&String::from_utf8_lossy(&self.buf[start..line_end]));
        // The shape is indices: the cursor moves (and a discard may start)
        // before anything is borrowed out.
        let LineShape {
            span,
            noreply,
            nbytes,
        } = LineShape::of(&self.line);

        let Some(nbytes) = nbytes else {
            // No data block follows: either a non-storage command, or a
            // malformed storage line the session will answer with
            // CLIENT_ERROR. Consume the line only.
            self.pos = nl + 1;
            return Some(Frame::Cmd {
                line: &self.line[span],
                data: &[],
                noreply,
            });
        };

        if nbytes > self.max_value {
            // Discard the value as it streams in; never buffer it whole.
            self.pos = nl + 1;
            self.skip = nbytes;
            self.skip_trailer = false;
            self.skip_oversize = true;
            return self.next_frame();
        }

        // Wait until the whole data block plus at least one terminator byte
        // is buffered.
        let data_start = nl + 1;
        let data_end = data_start + nbytes;
        if self.buf.len() < data_end + 1 {
            return None;
        }
        let terminator = match self.buf[data_end] {
            b'\n' => 1,
            // CRLF possibly split across packets: need one more byte.
            b'\r' if self.buf.len() < data_end + 2 => return None,
            b'\r' if self.buf[data_end + 1] == b'\n' => 2,
            _ => {
                self.resync_after(data_end);
                return Some(Frame::BadDataChunk);
            }
        };
        self.pos = data_end + terminator;
        Some(Frame::Cmd {
            line: &self.line[span],
            data: &self.buf[data_start..data_end],
            noreply,
        })
    }

    fn find_newline(&self, from: usize) -> Option<usize> {
        let i = self.buf[from..].iter().position(|&b| b == b'\n')?;
        Some(from + i)
    }

    /// Length mismatch: drop everything through the next newline at or after
    /// `from`, so the reader realigns on the next command. If the newline is
    /// not buffered yet, arrange to keep discarding as bytes arrive.
    fn resync_after(&mut self, from: usize) {
        match self.find_newline(from) {
            Some(i) => self.pos = i + 1,
            None => {
                self.pos = self.buf.len();
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
    fn deep_backlog_frames_in_linear_time() {
        // One `feed` of > 4 MiB of pipelined `noreply` sets: a framer that
        // moves the unconsumed tail per request does ~80 GB of memmove here
        // (tens of seconds); the cursor moves nothing.
        const REQS: usize = 40_000;
        let value = [b'v'; 80];
        let mut backlog = Vec::new();
        for i in 0..REQS {
            backlog.extend_from_slice(format!("set k{i:05} 0 0 80 noreply\r\n").as_bytes());
            backlog.extend_from_slice(&value);
            backlog.extend_from_slice(b"\r\n");
        }
        assert!(backlog.len() >= 4 << 20);
        let mut r = RequestReader::new(1024);
        let started = std::time::Instant::now();
        r.feed(&backlog);
        for i in 0..REQS {
            let line = format!("set k{i:05} 0 0 80");
            let want = Frame::Cmd {
                line: &line,
                data: &value,
                noreply: true,
            };
            assert_eq!(r.next_frame(), Some(want), "request {i}");
        }
        assert_eq!(r.next_frame(), None);
        assert_eq!(r.buffered(), 0);
        let took = started.elapsed();
        assert!(
            took < std::time::Duration::from_secs(2),
            "framing a {REQS}-request backlog took {took:?}"
        );
    }

    #[test]
    fn frames_borrow_and_feed_compacts_behind_the_cursor() {
        let mut r = RequestReader::new(1024);
        r.feed(b"  get   a  b \r\nset k 0 0 2\r\nhi\r\nget par");
        // Inner spacing is the sender's; the session tokenizes on it.
        assert_eq!(r.next_request(), Some(cmd("get   a  b", b"", false)));
        assert_eq!(r.next_request(), Some(cmd("set k 0 0 2", b"hi", false)));
        assert_eq!(r.next_request(), None);
        assert_eq!(r.buffered(), "get par".len(), "consumed bytes do not count");
        r.feed(b"tial\r\n");
        assert_eq!(r.buffered(), "get partial\r\n".len());
        assert_eq!(r.next_request(), Some(cmd("get partial", b"", false)));
        // A line that is not UTF-8 is framed from its lossy transcoding.
        r.feed(b"get k\xff noreply\r\n");
        assert_eq!(r.next_request(), Some(cmd("get k\u{fffd}", b"", true)));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn empty_line_is_a_command() {
        let mut r = RequestReader::new(1024);
        r.feed(b"\r\n");
        assert_eq!(r.next_request(), Some(cmd("", b"", false)));
    }
}
