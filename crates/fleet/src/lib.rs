//! # wade-fleet — the fleet-scale scenario engine
//!
//! Everything below WADE simulates **one** server very well. This crate
//! turns that into a *population*: a [`FleetSpec`] manufactures hundreds
//! to thousands of heterogeneous devices from a single fleet seed —
//! per-device derived seeds, vintage-dependent geometry variants,
//! vintage-skewed and device-jittered error physics, and per-device
//! thermal/utilization field schedules built from the profiled workload
//! suite — then [`FleetSweep`] simulates every device's field life in
//! order-stable shards over the worker pool and persists each
//! `(shard, epoch)` **slice** as a `wade-store` artifact under an
//! epoch-invariant key, so a warm sweep is pure store reads (zero
//! simulation, zero profiling — counter-asserted by the fleet tests) and
//! extending a spec's epoch count reuses the entire prefix, simulating
//! only the new epochs. Shard assembly is a bounded-memory fold over
//! slices; [`FleetSweep::sweep_stored_visit`] streams finished device
//! histories one shard at a time.
//!
//! On top of the swept histories, [`FleetEval`] replays the fleet the way
//! an operator would see it: sliding observation windows (two-pointer,
//! linear in epochs) score each device at every epoch boundary, alerts
//! are graded into precision/recall at configurable lead times, and a
//! threshold sweep yields the mitigation-cost curve (migration cost vs
//! unmitigated-crash cost). [`FleetEvalBuilder`] consumes streamed device
//! histories so evaluation memory stays O(shard), not O(fleet).
//! [`transfer_matrix`] trains one WER model per vintage on the existing
//! store-backed trainers and scores every train-on-A/test-on-B pair, and
//! [`fleet_campaign_data`] repackages a swept fleet as ordinary
//! `CampaignData` so the serving registry loads fleet-trained models with
//! no fleet-specific code.
//!
//! The slicing/keying/merge contract lives in the module docs of
//! `src/sweep.rs` and is normative; `ARCHITECTURE.md` §15 mirrors it.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod eval;
mod spec;
mod sweep;

pub use eval::{
    fleet_campaign_data, transfer_matrix, CostPoint, DecisionPoint, FleetEval, FleetEvalBuilder,
    FleetEvalConfig, LeadTimeReport, TransferCell, TransferMatrix,
};
pub use spec::{FleetSpec, FLEET_SLICE_KIND};
pub use sweep::{
    DeviceHistory, EpochOutcome, FleetOutcome, FleetSlice, FleetSweep, SliceRow,
};
