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
//! only the new epochs. Shard assembly is a per-shard fold over slices,
//! and [`FleetSweep::sweep_stored`] concatenates the shards in shard order.
//!
//! On top of the swept histories, [`FleetEval`] replays the fleet the way
//! an operator would see it: sliding observation windows (two-pointer,
//! linear in epochs) score each device at every epoch boundary, alerts
//! are graded into precision/recall at configurable lead times, and a
//! threshold sweep yields the mitigation-cost curve (migration cost vs
//! unmitigated-crash cost). [`transfer_matrix`] trains one WER model per
//! vintage on the existing store-backed trainers and scores every
//! train-on-A/test-on-B pair, and [`fleet_campaign_data`] repackages a
//! swept fleet as ordinary `CampaignData` so the serving registry loads
//! fleet-trained models with no fleet-specific code.
//!
//! # Slicing / keying / merge contract (normative)
//!
//! `ARCHITECTURE.md` §15 mirrors this contract.
//!
//! - Devices are assigned to shards in **contiguous index blocks**
//!   (`FleetSpec::shard_range`); the merged fleet is the concatenation of
//!   shards in shard order, so the merge is order-stable by construction
//!   and the swept fleet is byte-identical at any thread count.
//! - A device's epoch is a pure function of `(spec prefix, fleet_seed,
//!   index, epoch)` — never of its shard, of neighbouring devices, or of
//!   the spec's *total* epoch count (`FleetSpec::epoch_plan` is
//!   epoch-invariant by contract; `fleetv` in the key prefix versions that
//!   contract). Every slice boundary is therefore a **replay point**: any
//!   `(shard, epoch)` slice can be recomputed in isolation, and a single
//!   device can be replayed end to end ([`FleetSweep::device_history`]).
//! - The unit of persistence is the **epoch slice**: kind
//!   [`FLEET_SLICE_KIND`], key `fleet|seed=…|det=…|soc=…|spec=<epoch-
//!   invariant prefix>|shard=s|epoch=e` ([`FleetSweep::slice_key`]). A
//!   slice holds one [`EpochOutcome`] per device **alive entering** that
//!   epoch (crashed devices leave the population, so later slices shrink).
//!   Because the key omits `epochs`, extending a spec E→E′ finds slices
//!   `0..E` warm — zero simulations, zero profiling, counter-asserted —
//!   and simulates only the `E..E′` delta. Any re-baselining event —
//!   simulator (`det`), profiler (`soc`), stream contract (`fleetv`) or
//!   spec prefix — turns warm slices into misses, never stale hits.
//! - Shard assembly is a **per-shard fold**: [`FleetSweep::sweep_stored`]
//!   walks shards sequentially and, per shard, slices in epoch order,
//!   carrying only the shard's accumulating histories and alive set, then
//!   appends the shard's finished histories to the outcome. A missing
//!   slice (cold, evicted, or failed under a degraded store) recomputes
//!   exactly the alive devices of that one `(shard, epoch)` cell and
//!   republishes — the fold is byte-identical either way. A
//!   stored slice whose shard, epoch or rows disagree with the alive set
//!   is mis-keyed: the store's read-through fit check counts it as unfit
//!   and it is handled like a missing one.
//! - A warm [`FleetSweep::sweep_stored`] performs **zero** simulations and
//!   zero workload profiling ([`FleetSweep::simulations`] /
//!   [`FleetSweep::profilings`]): the workload suite is profiled lazily,
//!   only once some slice actually misses.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod eval;
mod spec;
mod sweep;

pub use eval::{
    fleet_campaign_data, transfer_matrix, CostPoint, DecisionPoint, FleetEval,
    FleetEvalConfig, LeadTimeReport, TransferCell, TransferMatrix,
};
pub use spec::{FleetSpec, FLEET_SLICE_KIND};
pub use sweep::{
    DeviceHistory, EpochOutcome, FleetOutcome, FleetSlice, FleetSweep, SliceRow,
};
