//! Typed faults surfaced by a poisoned pool.

use std::fmt;

/// The error returned by [`crate::PmemPool::checked`] operations once the
/// fault plan in [`crate::ChaosConfig`] has tripped.
///
/// A tripped plan models a power failure at a precise point in the
/// instruction stream: the durable image is frozen as of the crash point and
/// nothing issued afterwards can become durable. Execution on top of the
/// pool is allowed to continue (stores still land in the *working* image,
/// which a real crash would discard anyway), but cooperative code should
/// treat this error as "the machine is gone" and unwind without panicking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmemFault {
    /// The pool reached `crash_at_event` persistence events and is poisoned.
    Crashed {
        /// The crash point from the fault plan (first `at_event` persistence
        /// events took effect; everything later was dropped).
        at_event: u64,
    },
}

impl fmt::Display for PmemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemFault::Crashed { at_event } => {
                write!(f, "pool crashed at persistence event {at_event}")
            }
        }
    }
}

impl std::error::Error for PmemFault {}
