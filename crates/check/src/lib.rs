//! `twofd-check`: a vendored, dependency-free bounded model checker
//! for the 2W-FD concurrency core.
//!
//! In the mold of loom/CDSChecker: production code compiles against
//! instrumented [`sync`] / [`thread`] shims (via `#[cfg(twofd_check)]`
//! facades in `twofd-net`'s inbox and clock and in `twofd-obs`), and
//! [`model`] exhaustively explores thread interleavings and
//! relaxed-memory value choices under a deterministic scheduler,
//! bounded by a preemption budget and an iteration cap. On failure it prints the full operation trace plus a
//! schedule seed that [`Builder::replay_seed`] re-executes exactly.
//!
//! ```
//! use twofd_check::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! twofd_check::model(|| {
//!     let flag = Arc::new(AtomicU64::new(0));
//!     let f2 = Arc::clone(&flag);
//!     let t = twofd_check::thread::spawn(move || f2.store(1, Ordering::Release));
//!     let seen = flag.load(Ordering::Acquire);
//!     assert!(seen == 0 || seen == 1);
//!     t.join().unwrap();
//! });
//! ```
//!
//! What the model covers, and its deliberate approximations, are
//! documented on the [`engine`](self) module (see `engine.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod vclock;

pub mod sync;
pub mod thread;

pub use engine::{model, Builder, Failure, Report};
