//! Synchronization shim: std primitives normally, loom under `--features loom`.
//!
//! The parallel engine's cross-thread state — the shard barriers and the
//! cross-shard inboxes — takes `Mutex`/`Condvar` from *this* module
//! instead of `std::sync`, so the same code can be compiled against
//! loom's model-checked primitives and its interleavings explored. See
//! DESIGN.md §13 for the gating rules.

#[cfg(feature = "loom")]
pub use loom::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(feature = "loom"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};
