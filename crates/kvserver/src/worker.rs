//! A server worker: one thread multiplexing many nonblocking connections.
//!
//! Each worker owns a private connection table (no locks on the hot path —
//! the accept loop hands new sockets over through an inbox) and one lazily
//! filled [`kvstore::StoreLease`] shared by everything it serves. A sweep
//! is: adopt new connections, read every readable socket, frame and execute
//! in place everything then buffered as one batch under a shared epoch
//! window ([`crate::batch`]), and only then flush the queued replies — the
//! flush-after-fence ordering is what turns per-sweep batching into group
//! commit.
//!
//! The read and parse phases are bounded per connection per sweep, so one
//! firehose connection cannot starve its neighbours, and a stalled or
//! half-written frame (slow-loris) costs only its own connection's state —
//! the sweep moves on past a `WouldBlock` immediately.

use montage::sync::uninstrumented::Ordering;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kvstore::protocol::Session;

use crate::event_loop::Inbox;
use crate::frame::RequestReader;
use crate::server::Shared;

/// Read-syscall buffer size.
const READ_CHUNK: usize = 16 << 10;
/// Per-connection read budget per sweep.
const MAX_READ_PER_CONN: usize = 64 << 10;
/// Per-connection framed-request budget per sweep.
pub(crate) const MAX_REQS_PER_CONN: usize = 512;
/// A connection whose unflushed output exceeds this is dropped — a peer
/// that stops reading must not balloon server memory.
const MAX_OUT_BUFFER: usize = 16 << 20;
/// Idle sweeps spent yielding before the worker falls back to sleeping.
const SPIN_SWEEPS: u32 = 64;

/// One multiplexed connection, owned by exactly one worker.
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub reader: RequestReader,
    /// Queued replies; flushed only after the batch fence.
    pub out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    pub sent: usize,
    pub last_activity: Instant,
    /// Last time a flush made progress, for the write-stall timeout.
    pub last_write: Instant,
    /// When the reader first held an *incomplete* frame with no complete
    /// request to show for it. A slow-loris trickle resets `last_activity`
    /// on every byte but can never clear this until it finishes the frame,
    /// so `idle_timeout` measures from here.
    pub partial_since: Option<Instant>,
    /// Reply queued, connection closes once `out` drains (quit, fatal
    /// protocol error, handler panic).
    pub closing: bool,
    /// Tear down now, without draining.
    pub dead: bool,
    /// Durable session id attached via the `session` command — the client's
    /// exactly-once identity. Deliberately *not* tied to the connection's
    /// lifetime: a reconnecting client re-attaches the same id and replays
    /// its last request id against the store's descriptor table.
    pub session: Option<u64>,
}

impl Conn {
    /// Slow-loris bookkeeping, once per sweep after framing: a frame the
    /// peer started must be finished within `idle_timeout`. Completing any
    /// request (or draining the buffer) resets the clock; trickling bytes
    /// does not.
    pub(crate) fn after_framing(&mut self, framed: usize, now: Instant, idle_timeout: Duration) {
        if framed > 0 || self.reader.buffered() == 0 {
            self.partial_since = None;
        } else if self.partial_since.is_none() {
            self.partial_since = Some(now);
        }
        if self
            .partial_since
            .is_some_and(|t| now.duration_since(t) > idle_timeout)
        {
            self.dead = true;
        }
    }
}

pub(crate) fn run(widx: usize, inbox: Arc<Inbox>, shared: Arc<Shared>) {
    let lease = Arc::new(shared.store.lease());
    let session = Session::sharded(Arc::clone(&shared.store), Arc::clone(&lease));
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; READ_CHUNK];
    let mut idle_sweeps: u32 = 0;

    loop {
        for nc in inbox.drain() {
            let _ = nc.stream.set_nonblocking(true);
            let _ = nc.stream.set_nodelay(true);
            let now = Instant::now();
            conns.push(Conn {
                stream: nc.stream,
                reader: RequestReader::new(shared.cfg.max_value_bytes),
                out: Vec::new(),
                sent: 0,
                last_activity: now,
                last_write: now,
                partial_since: None,
                closing: false,
                dead: false,
                session: None,
            });
        }
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }

        let now = Instant::now();
        let mut progressed = false;

        for c in conns.iter_mut() {
            if c.dead {
                continue;
            }
            if now.duration_since(c.last_activity) > shared.cfg.read_timeout {
                c.dead = true; // idle reap
                continue;
            }
            if c.closing {
                continue; // draining replies only
            }
            let mut read_bytes = 0usize;
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => {
                        c.reader.feed(&buf[..n]);
                        c.last_activity = now;
                        progressed = true;
                        read_bytes += n;
                        // A short read drained the socket: asking again
                        // would buy a `WouldBlock` for a syscall.
                        if n < buf.len() || read_bytes >= MAX_READ_PER_CONN {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
        }

        // Frame and execute phase: everything now buffered, as one batch.
        if crate::batch::execute(widx, &mut conns, now, &session, &lease, &shared) > 0 {
            progressed = true;
        }

        // Flush phase: strictly after the batch (and its fence).
        for c in conns.iter_mut() {
            flush(c, now, &shared);
        }

        conns.retain_mut(|c| {
            let drained = c.sent >= c.out.len();
            if c.dead || (c.closing && drained) {
                retire(c, &shared);
                false
            } else {
                true
            }
        });

        if progressed {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps <= SPIN_SWEEPS {
                // Stay hot briefly: a closed-loop client's next request is
                // usually already in flight, and sleeping here would put a
                // scheduler quantum into every round-trip.
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    // Shutdown: adopt anything handed over but never served so its slot
    // returns, then close everything. A graceful stop gives queued replies
    // one last nonblocking flush; a crash-style stop discards them — the
    // point of `crash()` is to model acks that never escaped the machine.
    for nc in inbox.drain() {
        let _ = nc.stream.shutdown(Shutdown::Both);
        shared.conns.release();
    }
    let graceful = !shared.crashed.load(Ordering::Acquire);
    let now = Instant::now();
    for c in conns.iter_mut() {
        if graceful {
            flush(c, now, &shared);
        }
        retire(c, &shared);
    }
}

fn retire(c: &mut Conn, shared: &Shared) {
    let _ = c.stream.shutdown(Shutdown::Both);
    if c.session.take().is_some() {
        shared.sessions.release(); // disconnect releases the session slot
    }
    shared.conns.release();
}

/// Writes as much queued output as the socket accepts right now.
fn flush(c: &mut Conn, now: Instant, shared: &Shared) {
    if c.sent >= c.out.len() {
        if !c.out.is_empty() {
            c.out.clear();
            c.sent = 0;
        }
        c.last_write = now;
        return;
    }
    while c.sent < c.out.len() {
        match c.stream.write(&c.out[c.sent..]) {
            Ok(0) => {
                c.dead = true;
                break;
            }
            Ok(n) => {
                c.sent += n;
                c.last_write = now;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if now.duration_since(c.last_write) > shared.cfg.write_timeout {
                    c.dead = true; // peer stopped reading
                }
                break;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                c.dead = true;
                break;
            }
        }
    }
    if c.sent >= c.out.len() {
        c.out.clear();
        c.sent = 0;
    } else if c.out.len() - c.sent > MAX_OUT_BUFFER {
        c.dead = true;
    }
}
