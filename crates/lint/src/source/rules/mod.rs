//! The source rule implementations. Each module exposes a `check` that
//! pushes [`crate::Diagnostic`]s; `source/mod.rs` owns suppression and
//! sorting. The failpoint extractors are public for the chaos suites'
//! registry checks.

pub(super) mod atomics;
pub mod failpoints;
pub(super) mod forbidden;
pub(super) mod lock_order;
pub(super) mod protocol;
