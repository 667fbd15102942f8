//! The per-thread half of the journal and the profiler: one list of
//! registrations per thread, one entry per sink the thread has touched.
//!
//! Every sink (a [`crate::Trace`] journal or a [`crate::Profiler`])
//! takes a process-unique id from [`next_id`]. The first time a thread
//! records into a sink it registers its state here: an event buffer for
//! a journal, an activity slot for a profiler. Registering prunes the
//! states of sinks that have been dropped since. When the thread exits
//! the list drops, and each state runs its own exit step: buffers flush
//! into their journal and activity slots are tombstoned.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::journal::Buffer;
use crate::prof::Activity;

/// Source of sink ids, shared by journals and profilers so a thread's
/// registrations never collide.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A fresh sink id.
pub(crate) fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One thread's state for one sink.
pub(crate) enum Local {
    /// Events not yet flushed into a journal.
    Journal(Buffer),
    /// The activity stack a profiler samples.
    Activity(Activity),
}

impl Local {
    fn orphaned(&self) -> bool {
        match self {
            Local::Journal(buffer) => buffer.orphaned(),
            Local::Activity(activity) => activity.orphaned(),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Vec<(u64, Local)>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` on the calling thread's state for sink `id`, registering
/// `init()` on first contact. `None` while thread-local storage is torn
/// down at thread exit; the caller then bypasses its per-thread state.
pub(crate) fn with<R>(
    id: u64,
    init: impl FnOnce() -> Local,
    f: impl FnOnce(&mut Local) -> R,
) -> Option<R> {
    LOCAL
        .try_with(|local| {
            let mut states = local.borrow_mut();
            let index = match states.iter().position(|(sink, _)| *sink == id) {
                Some(index) => index,
                None => {
                    states.retain(|(_, state)| !state.orphaned());
                    states.push((id, init()));
                    states.len() - 1
                }
            };
            f(&mut states[index].1)
        })
        .ok()
}

/// Runs `f` on the calling thread's state for sink `id`, if the thread
/// has registered one.
pub(crate) fn with_registered(id: u64, f: impl FnOnce(&mut Local)) {
    let _ = LOCAL.try_with(|local| {
        if let Some((_, state)) = local.borrow_mut().iter_mut().find(|(sink, _)| *sink == id) {
            f(state);
        }
    });
}
