//! Live query subscriptions: an initial result plus per-epoch change
//! events, pushed as DML commits.
//!
//! A [`Subscription`] is registered by
//! [`crate::session::Session::subscribe_sql`] for one concrete (fully
//! bound, parameter-substituted) query plan. The engine evaluates the
//! plan once at registration and pushes [`DeltaEvent::Initial`]; after
//! every committed write touching one of the plan's base tables it pushes
//! either
//!
//! * [`DeltaEvent::Delta`] — the rows the write *added* to the result,
//!   computed by running the plan over the commit's appended rows alone
//!   ([`rdb_delta::eval_append`]). Only select-class plans w.r.t. the
//!   changed table (see [`rdb_delta::Repairability`]) and pure appends
//!   qualify; the cached result concatenated with these rows is
//!   byte-identical to a recompute.
//! * [`DeltaEvent::Refresh`] — the full re-evaluated result, for deletes,
//!   non-select plans, or when the engine detects it skipped an epoch.
//!
//! Registration and fan-out serialize on one registry lock, and each
//! entry tracks the epoch vector its client has seen, so the initial
//! result and the event stream compose without gaps or duplicates: a
//! commit is either already inside the initial result (then its delta is
//! suppressed by the epoch check) or delivered as exactly one event.
//! Events are consumed with the blocking `Iterator` impl or the
//! non-blocking [`Subscription::try_next`]; dropping the handle
//! unregisters it, and [`crate::engine::Engine::shutdown`] closes every
//! queue (iteration then ends once drained).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use rdb_plan::Plan;
use rdb_vector::{Batch, Schema};

use crate::engine::Engine;

/// One change notification pushed to a [`Subscription`].
#[derive(Debug, Clone)]
pub enum DeltaEvent {
    /// The subscription's full result as of registration.
    Initial(Batch),
    /// Rows a committed append added to the result. Appending these rows
    /// to the previously delivered state reproduces a full recompute.
    Delta {
        /// The new result rows (the plan evaluated over the delta alone).
        appended: Batch,
        /// The changed table's epoch after the commit.
        epoch: u64,
        /// The base table that changed.
        table: String,
    },
    /// The full re-evaluated result, replacing all previously delivered
    /// state (deletes, non-select plans, skipped epochs).
    Refresh(Batch),
}

/// MPSC event queue between the engine's write path and one subscriber.
pub(crate) struct SubQueue {
    events: Mutex<VecDeque<DeltaEvent>>,
    cond: Condvar,
    closed: AtomicBool,
}

impl SubQueue {
    pub(crate) fn new() -> SubQueue {
        SubQueue {
            events: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn push(&self, ev: DeltaEvent) {
        self.events.lock().push_back(ev);
        self.cond.notify_all();
    }

    /// Close the queue: already-queued events still drain, then iteration
    /// ends.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.cond.notify_all();
    }

    fn try_pop(&self) -> Option<DeltaEvent> {
        self.events.lock().pop_front()
    }

    fn pop_blocking(&self) -> Option<DeltaEvent> {
        let mut q = self.events.lock();
        loop {
            if let Some(ev) = q.pop_front() {
                return Some(ev);
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            self.cond.wait(&mut q);
        }
    }
}

/// One registered live query inside the engine's subscription registry.
pub(crate) struct SubEntry {
    pub(crate) id: u64,
    /// The concrete plan (bound, parameter-free).
    pub(crate) plan: Plan,
    /// The plan's output schema.
    pub(crate) schema: Schema,
    /// The plan's base-table footprint, parallel to `epochs` and
    /// `classes`.
    pub(crate) tables: Vec<String>,
    /// Per-table epoch the subscriber's delivered state reflects; used to
    /// suppress duplicate deltas (a commit already inside the initial
    /// result) and to detect skipped epochs (then: refresh).
    pub(crate) epochs: Vec<u64>,
    /// Per-table repairability class, precomputed at registration.
    pub(crate) classes: Vec<rdb_delta::Repairability>,
    pub(crate) queue: Arc<SubQueue>,
}

/// A live query: consume [`DeltaEvent`]s via the blocking `Iterator` impl
/// or [`Subscription::try_next`]. Dropping the handle unregisters the
/// subscription.
pub struct Subscription {
    engine: Arc<Engine>,
    id: u64,
    schema: Schema,
    queue: Arc<SubQueue>,
}

impl Subscription {
    pub(crate) fn new(
        engine: Arc<Engine>,
        id: u64,
        schema: Schema,
        queue: Arc<SubQueue>,
    ) -> Subscription {
        Subscription {
            engine,
            id,
            schema,
            queue,
        }
    }

    /// Registry id (unique per engine).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The subscribed query's result schema (every event's batch conforms
    /// to it).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next pending event, without blocking.
    pub fn try_next(&self) -> Option<DeltaEvent> {
        self.queue.try_pop()
    }

    /// Whether the engine closed this subscription (shutdown). Queued
    /// events may still be pending.
    pub fn is_closed(&self) -> bool {
        self.queue.closed.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("closed", &self.is_closed())
            .finish_non_exhaustive()
    }
}

impl Iterator for Subscription {
    type Item = DeltaEvent;

    /// Block until the next event arrives; `None` once the subscription
    /// is closed and drained.
    fn next(&mut self) -> Option<DeltaEvent> {
        self.queue.pop_blocking()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.engine.unregister_subscription(self.id);
    }
}
