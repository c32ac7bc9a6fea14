//! Multi-process sweep sharding with byte-deterministic merge.
//!
//! One DQMC campaign, many OS processes: the grid is split into
//! contiguous (U, β) point blocks ([`sched::plan_shards`]), each block
//! becomes a [`ShardManifest`] handed to a supervised child process, each
//! child runs its points through a private [`sched::SweepService`] and
//! checkpoints a [`ShardReport`] after every finished point, and the
//! supervisor recombines the reports into the **exact bytes** the
//! single-process sweep would have produced.
//!
//! The identity is structural, not statistical. The shard unit is a whole
//! grid point, canonical point indices are the seed stream ids, and a
//! point summary is a pure function of (grid, seeds) — pinned by the
//! determinism test tier. Merging therefore reassembles finished
//! fragments in canonical order and emits them through the one shared
//! [`sched::observables_json_for`] formatter; no float is ever
//! re-associated across processes. Crashes, wedges, and respawns cannot
//! move the bytes either: a restarted child reruns only its unfinished
//! points, and those rerun to the same summaries the lost process would
//! have written.
//!
//! Layout:
//!
//! - [`manifest`]: `DQSM` work orders (grid text + point block +
//!   fingerprint);
//! - [`report`]: `DQSR` result/checkpoint files and the merge;
//! - [`child`]: the shard worker loop (resume, in-place heartbeat, fault
//!   hooks);
//! - [`supervisor`]: process spawning, heartbeat watchdog,
//!   respawn-from-checkpoint, quarantine, and the health ledger.

pub mod child;
pub mod manifest;
pub mod report;
pub mod supervisor;

pub use child::{child_main, SCRIPTED_EXIT_CODE};
pub use manifest::ShardManifest;
pub use report::{merge_reports, MergeError, MergedReport, ShardReport};
pub use supervisor::{
    run_fleet, run_fleet_subset, ChildCommand, FleetConfig, FleetError, FleetOutcome,
};

// Manifests and reports publish through the workspace's single audited
// write path, `util::vfs::write_atomic`. The heartbeat is the one file
// rewritten in place, without durability (see `child`).
