//! # pmcmc-runtime
//!
//! Task-scheduling substrate for the `pmcmc` workspace.
//!
//! §VI of the reproduced paper relies on two execution services that are
//! built here from scratch on top of `std::thread` and `std::sync`
//! primitives:
//!
//! * [`pool::WorkerPool`] — a persistent pool running whole jobs and the
//!   *weighted* batches of borrowed tasks they fan out, in
//!   longest-processing-time-first order, work-first; used by the
//!   partitioning samplers where partitions receive unequal iteration
//!   budgets ("the processor dead-time ... can be reclaimed through the use
//!   of a task scheduler").
//! * [`team::SpinTeam`] — a spinning broadcast team with sub-microsecond
//!   round dispatch; used by speculative moves where one round lasts about
//!   one MCMC iteration.
//! * [`executor::JobExecutor`] — job placement over the pools of one or
//!   more nodes: at most `limit` jobs run at once per node, each as a task
//!   on its node's pool, and the rest wait in the [`SlotTable`]'s backlog.
//!   It has no thread of its own, so a node's pool is its one thread set.
//!   Every job an in-process node runs (a sharded cluster, one machine's
//!   1-node cluster included, or a node daemon) goes through one.
//! * [`scheduler`] — pure LPT ordering and makespan prediction, testable in
//!   isolation.
//! * [`cluster`] — the eq. (4) `s × t` topology shape ([`ClusterTopology`],
//!   [`NodeId`]) and the [`SlotTable`] every backend places its jobs
//!   through.
//! * [`wire`] — the versioned, length-prefixed binary format the
//!   distributed backend speaks over sockets (and the serialisation
//!   substrate for checkpoint/resume).
//! * [`net`] — framed blocking TCP transport ([`FrameConn`]) carrying
//!   [`wire`] frames between the coordinator and node daemons.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cluster;
pub mod executor;
pub mod net;
pub mod pool;
pub mod scheduler;
pub mod team;
pub mod wire;

pub use cluster::{ClusterTopology, NodeId, Offer, Placed, SlotTable};
pub use executor::{Finish, JobExecutor};
pub use net::FrameConn;
pub use pool::{PoolStats, WorkerPool};
pub use scheduler::{
    list_schedule_makespan, lpt_bundles, lpt_makespan, lpt_order, makespan_lower_bound,
};
pub use team::SpinTeam;
