//! # mcl-fleet — localization as a service
//!
//! The paper localizes a single nano-UAV fully on-board; this crate turns the
//! same filter into a *service*: one process hosting thousands of concurrent
//! [`MonteCarloLocalization`](mcl_core::MonteCarloLocalization) instances —
//! one per registered drone — behind a length-prefixed binary protocol
//! (register drone / push odometry+ToF frame — optionally with a v2 UWB
//! anchor-range block / stream pose estimates / deregister).
//!
//! ## Architecture
//!
//! ```text
//!  TCP clients                 shards (threads)              worker pool
//!  ───────────                 ────────────────              ───────────
//!  conn reader ──┐   bounded   ┌─> shard 0: drain queue ──> one dispatch per
//!  conn reader ──┼─> per-shard ├─> shard 1:  (coalesced       coalesced batch
//!  FleetHandle ──┘   queues    └─> ...        batch)          (1 task / drone)
//!        ▲                              │
//!        └── pose stream <── outbox <───┘ (bounded, drop-oldest-pose)
//! ```
//!
//! * **Sharding** — every drone is pinned to one shard
//!   (`drone_id % shards`); a shard owns its filters outright, so no global
//!   filter lock exists. Shard threads block on a bounded command queue:
//!   submitting into a full queue blocks the producer, which is exactly the
//!   backpressure that keeps memory stable under overload (TCP readers stop
//!   reading, the kernel socket buffer fills, the client blocks).
//! * **Coalescing** — a shard drains *everything* queued since its last wake
//!   into one batch and executes the whole batch as a single
//!   [`pool::dispatch_limited`](mcl_core::pool::WorkerPool::dispatch_limited)
//!   over the shared worker pool (one task per drone with pending frames, the
//!   per-drone frames applied in arrival order). Concurrently arriving
//!   observation updates therefore share one publish/claim round trip instead
//!   of paying the `dispatch_overhead` bench's cost once per update.
//! * **Determinism** — a filter's results depend only on its own ordered
//!   update sequence (the counter-based RNG is keyed on seed, update index
//!   and particle index), and both the per-shard FIFO queue and the per-drone
//!   frame groups preserve per-drone arrival order. Batch boundaries, shard
//!   counts, worker counts and kernel backends therefore cannot change any
//!   drone's pose stream: it is bit-identical to an independent single-filter
//!   run fed the same frames (`tests/fleet_determinism.rs` pins this).
//! * **Fault isolation** — protocol errors are answered per connection and
//!   per drone; a filter panic inside a coalesced batch is caught, reported
//!   as an [`protocol::ErrorCode::Internal`] response, and retires only that
//!   drone's slot. The pool and the other drones keep running.
//!
//! Every filter shares one immutable world ([`FleetWorld`]) through the
//! `Arc<EuclideanDistanceField>` forwarding impl of
//! [`DistanceField`](mcl_gridmap::DistanceField), so hosting 4096 drones
//! costs 4096 particle sets but only one distance field.
//!
//! ## Environment
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `MCL_FLEET_SHARDS` | shard (thread) count | pool workers, ≤ 8 |
//! | `MCL_FLEET_QUEUE_CAP` | per-shard command queue bound | 1024 |
//! | `MCL_FLEET_OUT_CAP` | per-connection outbox bound | 4096 |
//! | `MCL_FLEET_DISPATCH_WORKERS` | per-batch dispatch parallelism cap | pool workers |
//! | `MCL_FLEET_MAX_DRONES` | registration capacity | 16384 |
//!
//! [`stats()`] snapshots the per-shard counters (updates/sec, coalesced batch
//! sizes, queue depth, p50/p99 update latency) of the most recently started
//! [`Fleet`].

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod fleet;
mod outbox;
pub mod protocol;
mod server;
mod shard;
mod stats;

pub use fleet::{DroneConfig, Fleet, FleetConfig, FleetError, FleetHandle, FleetWorld};
pub use outbox::Outbox;
pub use server::FleetServer;
pub use stats::{FleetStats, ShardStats};

/// Snapshot of the most recently started [`Fleet`]'s counters, if one is
/// still alive — the `fleet::stats()` entry point mirroring
/// [`mcl_core::pool::stats`].
pub fn stats() -> Option<FleetStats> {
    fleet::active_fleet().map(|fleet| fleet.stats())
}
