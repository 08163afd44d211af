//! # kvserver — a networked persistent KV front-end over Montage
//!
//! The paper validates Montage by porting a protected-library Memcached and
//! driving it with YCSB (Sec. 6.2 / Fig. 10); [`kvstore`] reproduces that
//! cache as an in-process library. This crate puts a socket in front of it:
//! a TCP server speaking the memcached **text protocol** (`std::net` +
//! nonblocking sockets, no async runtime) that delegates command execution
//! to [`kvstore::protocol::Session`], plus a closed-loop wire client (with
//! a pipelined mode) used by tests and benches.
//!
//! The core is **event-driven**: an accept thread sheds over-capacity
//! connects (`SERVER_ERROR busy`) and round-robins admitted sockets onto a
//! small pool of workers, each multiplexing its connections with a
//! nonblocking sweep loop. Everything a worker frames in one sweep executes
//! as one batch inside a shared epoch window, and the batch ends with
//! **epoch-aligned group commit**: one group sync over the touched shards
//! covers every mutation in the batch, and replies flush only after that
//! fence.
//!
//! The pieces:
//!
//! * **Admission** ([`server`]) — two capped counters, one for live
//!   connections (`max_conns`) and one for attached durable sessions
//!   (`max_sessions`). Montage `ThreadId`s are a per-*worker* resource
//!   (each worker owns one lazily filled [`kvstore::StoreLease`]), so ten
//!   thousand sockets need four ids, not ten thousand.
//! * **Request framing** ([`frame`]) — pipelined commands, command lines and
//!   data blocks split across packets, bare-`\n` line endings, length
//!   mismatches, and oversized values (discarded in a streaming fashion, so
//!   a hostile length field cannot balloon memory) are all handled before a
//!   command reaches the session.
//! * **The durability boundary** ([`server`], [`batch`](crate::server)) — a
//!   reply must not promise more durability than the epoch system has
//!   provided. Ordinary replies promise buffered durability only (a crash
//!   may lose the last two epochs); the `sync` admin command replies
//!   `SYNCED` only after `EpochSys::sync` returns, and the
//!   sync-every-N-ops mode (mirroring Fig. 9) fences each batch that
//!   crosses a multiple of N — before any of that batch's acks reach a
//!   socket.

mod batch;
mod client;
mod event_loop;
pub mod frame;
pub mod server;
mod worker;

pub use client::{PipeOp, WireClient};
pub use frame::{Frame, Request, RequestReader};
pub use server::{KvServer, ServerConfig, ServerHandle};
