//! Structured execution failure reporting.
//!
//! A failure inside a running pipeline — a stage of a
//! [`crate::fuse::FusedChain`] that panics or rejects its input, a
//! parallel worker that dies — is recorded as an [`ExecError`] in the
//! query's shared [`FailSlot`], and the operator that observes it ends
//! its stream cleanly instead of unwinding through its consumer. The
//! error then travels through [`crate::stream::ExecStream::error`] to the
//! session layer, which aborts recycler bookkeeping (a truncated stream
//! must never publish) and reports the cause.

use std::sync::Arc;

use parking_lot::Mutex;

/// An execution failure: what went wrong, carried from the failing worker
/// thread to the query's consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    message: String,
}

impl ExecError {
    /// Build from a message.
    pub fn msg(message: impl Into<String>) -> ExecError {
        ExecError {
            message: message.into(),
        }
    }

    /// The failure description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ExecError {}

/// Best-effort extraction of a panic payload's message (the two shapes
/// `panic!` actually produces), for wrapping worker panics into
/// [`ExecError`]s.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "unknown panic"
    }
}

/// One-shot, first-wins error slot shared by a query's pipeline workers
/// and its consuming operators. Workers `set` on failure; the consumer
/// (and the session layer above it) `get`s after the stream ends short.
#[derive(Debug, Default)]
pub struct FailSlot {
    slot: Mutex<Option<ExecError>>,
}

impl FailSlot {
    /// Fresh empty slot behind an `Arc`.
    pub fn shared() -> Arc<FailSlot> {
        Arc::new(FailSlot::default())
    }

    /// Record a failure. The first recorded error wins: later failures are
    /// usually knock-on effects of the first.
    pub fn set(&self, err: ExecError) {
        let mut slot = self.slot.lock();
        if slot.is_none() {
            *slot = Some(err);
        }
    }

    /// The recorded failure, if any.
    pub fn get(&self) -> Option<ExecError> {
        self.slot.lock().clone()
    }

    /// Whether a failure has been recorded.
    pub fn is_set(&self) -> bool {
        self.slot.lock().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_error_wins() {
        let slot = FailSlot::shared();
        assert!(!slot.is_set());
        assert!(slot.get().is_none());
        slot.set(ExecError::msg("first"));
        slot.set(ExecError::msg("second"));
        assert!(slot.is_set());
        assert_eq!(slot.get().unwrap().message(), "first");
    }

    #[test]
    fn panic_payloads_unwrap() {
        let p = std::panic::catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "static str");
        let p = std::panic::catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(p.as_ref()), "formatted 7");
    }
}
