//! # twofd-cluster — deterministic virtual-time cluster simulation
//!
//! Runs the **real** shard code — [`twofd_net::ShardCore`], the state
//! and pass body behind every shard of the sharded monitor that serves
//! live UDP traffic — inside a discrete-event cluster simulator. One
//! global event loop drives thousands of simulated heartbeat senders
//! through scripted links ([`twofd_sim::link`]) and calls each
//! monitor's shard cores directly: a pass per delivery batch, a sweep
//! at digest ticks and at the end, all in virtual time. There are no
//! workers, queues or clocks to coordinate.
//!
//! The pieces:
//!
//! * [`node`] — per-node clock scripting (origin offset + ppm drift).
//! * [`sim`] — the event loop: [`sim::ClusterConfig`] in,
//!   [`sim::ScenarioReport`] out, bit-identical for a given seed.
//! * [`scenarios`] — the named scenario library (steady state, crash,
//!   partitions, brownouts, churn, skewed clocks), each carrying the
//!   QoS envelope its report must land in.
//!
//! A year of simulated cluster traffic costs seconds of wall clock, and
//! any interesting run replays exactly from its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod node;
pub mod scenarios;
pub mod sim;

pub use node::NodeClock;
pub use scenarios::{library, Envelope, Scale, Scenario, StreamEnvelope};
pub use sim::{
    run, ClusterConfig, FederationPlan, MonitorReport, MonitorSpec, ScenarioReport, SenderSpec,
};
