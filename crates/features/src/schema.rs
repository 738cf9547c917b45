//! The fixed 249-feature schema.
//!
//! Layout (mirroring the paper's 247 perf counters + `Treuse` + `H_DP`):
//!
//! * indices `0..176` — 8 cores × 22 per-core counters,
//! * indices `176..208` — 4 MCUs × 8 per-channel counters,
//! * indices `208..247` — 39 SoC-wide counters,
//! * index [`TREUSE`] (247) — the DRAM reuse time in seconds,
//! * index [`HDP`] (248) — the data-pattern entropy in bits.

/// Total features per sample.
pub const FEATURE_COUNT: usize = 249;

/// Cores contributing per-core counters.
pub const CORES: usize = 8;

/// Counters per core.
pub const PER_CORE: usize = 22;

/// Memory-controller channels.
pub const MCUS: usize = 4;

/// Counters per MCU.
pub const PER_MCU: usize = 8;

/// SoC-wide counters.
pub const SOC_COUNTERS: usize = 39;

/// First index of the per-MCU block.
pub const MCU_BASE: usize = CORES * PER_CORE;

/// First index of the SoC block.
pub const SOC_BASE: usize = MCU_BASE + MCUS * PER_MCU;

/// Index of the DRAM reuse time feature (`Treuse`, eq. 4).
pub const TREUSE: usize = SOC_BASE + SOC_COUNTERS;

/// Index of the data-pattern entropy feature (`H_DP`, eq. 5).
pub const HDP: usize = TREUSE + 1;

const PER_CORE_NAMES: [&str; PER_CORE] = [
    "instructions",
    "cycles",
    "ipc",
    "cpi",
    "mem_reads",
    "mem_writes",
    "mem_accesses",
    "mem_accesses_per_cycle",
    "l1d_accesses",
    "l1d_misses",
    "l1d_miss_rate",
    "l2_accesses",
    "l2_misses",
    "l2_miss_rate",
    "l3_accesses",
    "l3_misses",
    "l3_miss_rate",
    "wait_cycles",
    "wait_cycle_ratio",
    "mpki",
    "read_fraction",
    "writebacks",
];

const PER_MCU_NAMES: [&str; PER_MCU] = [
    "read_cmds",
    "write_cmds",
    "total_cmds",
    "reads_per_cycle",
    "writes_per_cycle",
    "cmds_per_cycle",
    "row_activations",
    "rowbuffer_hit_rate",
];

const SOC_NAMES: [&str; SOC_COUNTERS] = [
    "soc.total_instructions",
    "soc.total_cycles",
    "soc.ipc",
    "soc.cpi",
    "soc.mem_reads",
    "soc.mem_writes",
    "soc.mem_accesses",
    "soc.mem_accesses_per_cycle",
    "soc.mem_reads_per_cycle",
    "soc.mem_writes_per_cycle",
    "soc.read_fraction",
    "soc.write_fraction",
    "soc.l1d_accesses",
    "soc.l1d_misses",
    "soc.l1d_miss_rate",
    "soc.l2_accesses",
    "soc.l2_misses",
    "soc.l2_miss_rate",
    "soc.l3_accesses",
    "soc.l3_misses",
    "soc.l3_miss_rate",
    "soc.l1_mpki",
    "soc.l2_mpki",
    "soc.l3_mpki",
    "soc.wait_cycles",
    "soc.wait_cycle_ratio",
    "soc.cpu_utilization",
    "soc.active_cores",
    "soc.dram_read_cmds",
    "soc.dram_write_cmds",
    "soc.dram_cmds_per_cycle",
    "soc.dram_reads_per_cycle",
    "soc.dram_writes_per_cycle",
    "soc.dram_bandwidth_bytes_per_cycle",
    "soc.row_activations",
    "soc.row_activation_rate",
    "soc.rowbuffer_hit_rate",
    "soc.writebacks",
    "soc.access_intensity",
];

/// Index of the SoC-wide "memory accesses per cycle" feature — the paper's
/// most error-correlated counter.
pub const SOC_MEM_ACCESSES_PER_CYCLE: usize = SOC_BASE + 7;

/// Index of the SoC-wide wait-cycle ratio ("wait cycles" in the paper).
pub const SOC_WAIT_CYCLE_RATIO: usize = SOC_BASE + 25;

/// Index of the SoC-wide row-activation rate.
pub const SOC_ROW_ACTIVATION_RATE: usize = SOC_BASE + 35;

/// Human-readable name of feature `index`.
///
/// # Panics
/// Panics if `index >= FEATURE_COUNT`.
pub fn name(index: usize) -> String {
    assert!(index < FEATURE_COUNT, "feature index {index} out of range");
    if index < MCU_BASE {
        let core = index / PER_CORE;
        let counter = index % PER_CORE;
        format!("core{core}.{}", PER_CORE_NAMES[counter])
    } else if index < SOC_BASE {
        let mcu = (index - MCU_BASE) / PER_MCU;
        let counter = (index - MCU_BASE) % PER_MCU;
        format!("mcu{mcu}.{}", PER_MCU_NAMES[counter])
    } else if index < TREUSE {
        SOC_NAMES[index - SOC_BASE].to_string()
    } else if index == TREUSE {
        "treuse_s".to_string()
    } else {
        "hdp_bits".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_adds_up_to_249() {
        assert_eq!(CORES * PER_CORE, 176);
        assert_eq!(MCUS * PER_MCU, 32);
        assert_eq!(SOC_BASE + SOC_COUNTERS, 247);
        assert_eq!(FEATURE_COUNT, 249);
        assert_eq!(TREUSE, 247);
        assert_eq!(HDP, 248);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<String> = (0..FEATURE_COUNT).map(name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn landmark_names() {
        assert_eq!(name(0), "core0.instructions");
        assert_eq!(name(MCU_BASE), "mcu0.read_cmds");
        assert_eq!(name(SOC_BASE), "soc.total_instructions");
        assert_eq!(name(SOC_MEM_ACCESSES_PER_CYCLE), "soc.mem_accesses_per_cycle");
        assert_eq!(name(SOC_WAIT_CYCLE_RATIO), "soc.wait_cycle_ratio");
        assert_eq!(name(SOC_ROW_ACTIVATION_RATE), "soc.row_activation_rate");
        assert_eq!(name(TREUSE), "treuse_s");
        assert_eq!(name(HDP), "hdp_bits");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_name_panics() {
        name(FEATURE_COUNT);
    }
}
