//! # wade-dram — statistical DRAM device and error-physics simulator
//!
//! The paper characterizes 72 real DDR3 chips (4 DIMMs × 2 ranks) under
//! relaxed refresh period (`TREFP` up to 2.283 s), lowered supply voltage
//! (1.428 V) and elevated temperature (50–70 °C). This crate is the
//! synthetic stand-in for those chips: a *statistical weak-cell model* that
//! reproduces the error phenomenology the paper reports —
//!
//! * exponential growth of the word error rate with `TREFP` (Fig. 7f),
//! * roughly an order of magnitude per 10 °C (retention halves
//!   exponentially with temperature, §II-B),
//! * strong DIMM-to-DIMM / rank-to-rank variation (188×, Fig. 8),
//! * workload dependence through *implicit refresh* (accesses and row
//!   activations recharge cells; §II-C), *data patterns* (true-/anti-cell
//!   orientation and coupling) and *disturbance* (row-hammer style
//!   cell-to-cell interference growing with the access rate),
//! * variable retention time (VRT) causing run-to-run variation (§V-A),
//! * multi-bit words and disturbance bursts producing uncorrectable errors
//!   at high temperature and long refresh periods (Fig. 9).
//!
//! Scale note: simulating 8 GB × 2 h cycle-by-cycle is infeasible and
//! unnecessary — errors come from the *tail* of the retention distribution,
//! a few hundred to ~10⁶ weak cells, which we sample individually. The
//! workload couples in through a compact [`DramUsageProfile`].
//!
//! Campaigns that re-measure one population (refresh-period sweeps, PUE
//! repeats) can freeze it once with [`ErrorSim::prepare`] and replay runs
//! from the resulting [`PreparedRun`] — bit-identical to [`ErrorSim::run`]
//! at a fraction of the cost. The seeding contract that makes this sound is
//! documented (normatively) in the `sim` module source.
//!
//! ```
//! use wade_dram::{DramDevice, DramUsageProfile, ErrorSim, OperatingPoint};
//!
//! let device = DramDevice::with_seed(7);
//! let profile = DramUsageProfile::uniform_synthetic(1 << 27); // 1 GiB
//! let op = OperatingPoint { trefp_s: 2.283, vdd_v: 1.428, temp_c: 50.0 };
//! let run = ErrorSim::new(&device).run(&profile, op, 7200.0, 1);
//! assert!(run.wer() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![deny(unreachable_pub, unnameable_types)]

mod address;
mod config;
mod device;
mod event;
mod geometry;
mod op;
mod prepared;
mod profile;
mod retention;
mod sim;
mod variation;

pub use address::{AddressMap, DramCoord};
pub use config::ErrorPhysics;
pub use device::DramDevice;
pub use event::{CeEvent, RunResult, UeEvent};
pub use geometry::{RankId, ServerGeometry, RANK_COUNT};
pub use op::OperatingPoint;
pub use profile::{DramUsageProfile, ReuseQuantiles};
pub use prepared::{LiveCellIndex, PreparedRun};
pub use retention::RetentionLaw;
pub use sim::{ErrorSim, DETERMINISM_VERSION};
pub use variation::RankVariation;
