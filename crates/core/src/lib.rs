//! # twofd-core — 2W-FD and baseline failure detectors with QoS
//!
//! This crate is the paper's primary contribution plus everything it is
//! compared against and configured by:
//!
//! * **Algorithms** — [`TwoWindowFd`] (and its generalization
//!   [`MultiWindowFd`]), [`ChenFd`], [`BertierFd`], [`PhiAccrualFd`] and
//!   [`EdFd`], all behind the uniform [`FailureDetector`] trait.
//! * **Evaluation** — [`replay()`](replay::replay) reconstructs a detector's full
//!   Trust/Suspect timeline over a heartbeat trace; [`QosMetrics`]
//!   aggregates the paper's four metrics (T_D, T_MR, T_M, P_A);
//!   [`calibrate()`](calibrate::calibrate) solves each algorithm's knob for a target detection
//!   time.
//! * **Configuration** — [`configure`] implements Chen's QoS
//!   configuration procedure (Eqs. 14–16) mapping a requirement tuple
//!   plus network behaviour to `(Δi, Δto)`; [`NetworkEstimator`]
//!   estimates `pL`/`V(D)` online.
//!
//! ## Quick example
//!
//! ```
//! use twofd_core::{replay, FailureDetector, TwoWindowFd};
//! use twofd_trace::WanTraceConfig;
//! use twofd_sim::Span;
//!
//! let trace = WanTraceConfig::small(5_000, 42).generate();
//! let mut fd = TwoWindowFd::new(1, 1000, trace.interval, Span::from_millis(50));
//! let result = replay(&mut fd, &trace);
//! let m = result.metrics();
//! assert!(m.query_accuracy > 0.9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bertier;
pub mod calibrate;
pub mod chen;
pub mod detector;
pub mod ed;
pub mod estimator;
pub mod impact;
pub mod math;
pub mod metrics;
pub mod multi;
pub mod netest;
pub mod phi;
pub mod qos;
pub mod replay;
pub mod slab;
pub mod suite;
pub mod timeline;
pub mod twofd;
pub mod wheel;
pub mod window;

pub use bertier::{BertierFd, BertierParams};
pub use calibrate::{calibrate, measure_td, Calibration};
pub use chen::ChenFd;
pub use detector::{Decision, FailureDetector, FdOutput};
pub use ed::{EdConfig, EdFd};
pub use estimator::ChenEstimator;
pub use impact::ImpactFd;
pub use metrics::{mistakes_by_segment, Mistake, QosMetrics};
pub use multi::{DetectorBuilder, ProcessSet, ProcessStatus, StreamTransition, TransitionKind};
pub use netest::NetworkEstimator;
pub use phi::{PhiAccrualFd, PhiConfig};
pub use qos::{configure, recurrence_lower_bound, ConfigError, FdConfig, NetworkBehavior, QosSpec};
pub use replay::{detect_crash, replay, ReplayResult};
pub use slab::{HotSlot, StreamSlab};
pub use suite::{AnyDetector, DetectorConfig, DetectorSpec, ParseSpecError};
pub use timeline::{Timeline, Transition};
pub use twofd::{MultiWindowFd, TwoWindowFd};
pub use wheel::{TimingWheel, WheelEntry};

// Re-exported so downstream code can name trace segments without an
// explicit twofd-trace dependency.
pub use twofd_trace::Segment;
