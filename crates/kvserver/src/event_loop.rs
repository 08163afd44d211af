//! The accept loop and connection handoff for the event-driven core.
//!
//! One thread owns the nonblocking listener. Each accepted socket is either
//! shed immediately (`SERVER_ERROR busy` when the connection cap is
//! reached — admission happens *here*, before any worker sees the socket)
//! or admitted, registered for [`crate::server::ServerHandle::crash`]'s
//! benefit, and round-robined into a worker's inbox. Workers adopt their
//! inbox at the top of every sweep; the inbox mutex is the only lock a
//! connection ever crosses, once, at birth.

use montage::sync::uninstrumented::Ordering;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::server::Shared;

/// A freshly accepted, already-admitted connection in flight to its worker.
pub(crate) struct NewConn {
    pub stream: TcpStream,
}

/// Handoff queue from the accept thread to one worker.
#[derive(Default)]
pub(crate) struct Inbox {
    queue: Mutex<Vec<NewConn>>,
}

impl Inbox {
    fn push(&self, conn: NewConn) {
        self.queue.lock().push(conn);
    }

    pub(crate) fn drain(&self) -> Vec<NewConn> {
        let mut q = self.queue.lock();
        if q.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut *q)
        }
    }
}

pub(crate) fn run(listener: TcpListener, shared: Arc<Shared>) {
    let n_workers = shared.stats.workers.len();
    let inboxes: Vec<Arc<Inbox>> = (0..n_workers).map(|_| Arc::new(Inbox::default())).collect();
    let mut workers = Vec::with_capacity(n_workers);
    for (widx, inbox) in inboxes.iter().enumerate() {
        let inbox = Arc::clone(inbox);
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("kvserver-worker-{widx}"))
                .spawn(move || {
                    // Per-request panics are contained inside the batch; this
                    // outer guard is a backstop so a worker bug degrades the
                    // server instead of unwinding across the join.
                    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        crate::worker::run(widx, inbox, shared);
                    }));
                })
                .expect("spawn kvserver worker"),
        );
    }

    let mut next_id: u64 = 0;
    while !shared.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _)) => {
                if !shared.conns.try_claim() {
                    // Over capacity: shed with a clean refusal. The socket is
                    // blocking here (accepted sockets don't inherit the
                    // listener's nonblocking flag), so the error line lands
                    // before the close.
                    let _ = stream.set_nodelay(true);
                    let _ = stream.write_all(b"SERVER_ERROR busy\r\n");
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let widx = (next_id % n_workers as u64) as usize;
                next_id += 1;
                inboxes[widx].push(NewConn { stream });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
}
