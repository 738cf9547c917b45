//! Performance-counter reports (the `perf` stand-in).

use crate::mcu::MCU_COUNT;
use serde::{Deserialize, Serialize};

/// Raw counters for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreCounters {
    /// Instructions retired (memory + non-memory).
    pub instructions: u64,
    /// Cycles consumed (instructions + exposed stalls).
    pub cycles: u64,
    /// Load instructions.
    pub mem_reads: u64,
    /// Store instructions.
    pub mem_writes: u64,
    /// L1D lookups.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 lookups caused by this core.
    pub l2_accesses: u64,
    /// L2 misses caused by this core.
    pub l2_misses: u64,
    /// L3 lookups caused by this core.
    pub l3_accesses: u64,
    /// L3 misses caused by this core.
    pub l3_misses: u64,
    /// Stall cycles spent waiting for the memory hierarchy.
    pub wait_cycles: u64,
    /// Dirty lines this core pushed down the hierarchy.
    pub writebacks: u64,
}

impl CoreCounters {
    /// Total memory accesses.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_reads + self.mem_writes
    }

    /// Instructions per cycle (0 when idle).
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }

    /// Cycles per instruction (0 when idle).
    pub fn cpi(&self) -> f64 {
        ratio(self.cycles, self.instructions)
    }

    /// Memory accesses per cycle — the paper's dominant feature.
    pub fn mem_accesses_per_cycle(&self) -> f64 {
        ratio(self.mem_accesses(), self.cycles)
    }

    /// L1D miss ratio.
    pub fn l1d_miss_rate(&self) -> f64 {
        ratio(self.l1d_misses, self.l1d_accesses)
    }

    /// L2 miss ratio.
    pub fn l2_miss_rate(&self) -> f64 {
        ratio(self.l2_misses, self.l2_accesses)
    }

    /// L3 miss ratio.
    pub fn l3_miss_rate(&self) -> f64 {
        ratio(self.l3_misses, self.l3_accesses)
    }

    /// Stall fraction: wait cycles over total cycles (the paper's
    /// `wait cycles` feature).
    pub fn wait_cycle_ratio(&self) -> f64 {
        ratio(self.wait_cycles, self.cycles)
    }

    /// L1D misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        1000.0 * ratio(self.l1d_misses, self.instructions)
    }

    /// Loads as a fraction of memory accesses.
    pub fn read_fraction(&self) -> f64 {
        ratio(self.mem_reads, self.mem_accesses())
    }
}

/// Raw counters for one MCU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct McuCounters {
    /// DRAM read commands issued.
    pub read_cmds: u64,
    /// DRAM write commands issued.
    pub write_cmds: u64,
    /// Row activations.
    pub row_activations: u64,
    /// Row-buffer hits.
    pub rowbuffer_hits: u64,
}

impl McuCounters {
    /// Total commands.
    pub fn total_cmds(&self) -> u64 {
        self.read_cmds + self.write_cmds
    }

    /// Row-buffer hit ratio.
    pub fn rowbuffer_hit_rate(&self) -> f64 {
        ratio(self.rowbuffer_hits, self.total_cmds())
    }
}

/// Counter snapshot of a complete SoC run; the source of the 247
/// perf-counter features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocReport {
    /// Per-core counters (fixed 8 cores on the modelled SoC).
    pub cores: Vec<CoreCounters>,
    /// Per-MCU counters (fixed `MCU_COUNT` channels).
    pub mcus: [McuCounters; MCU_COUNT],
    /// Core clock in Hz.
    pub clock_hz: f64,
}

impl SocReport {
    /// Wall-clock cycles of the run: the busiest core bounds the run on an
    /// in-order machine with barrier-free workloads.
    pub fn wall_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).max().unwrap_or(0)
    }

    /// Wall-clock seconds of the run.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_cycles() as f64 / self.clock_hz
    }

    /// Total instructions across cores.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// Total cycles summed over cores (for utilisation).
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.cycles).sum()
    }

    /// Aggregate IPC over the wall clock.
    pub fn ipc(&self) -> f64 {
        ratio(self.total_instructions(), self.wall_cycles())
    }

    /// Aggregate CPI (inverse of [`SocReport::ipc`]).
    pub fn cpi(&self) -> f64 {
        ratio(self.wall_cycles(), self.total_instructions())
    }

    /// Total loads.
    pub fn mem_reads(&self) -> u64 {
        self.cores.iter().map(|c| c.mem_reads).sum()
    }

    /// Total stores.
    pub fn mem_writes(&self) -> u64 {
        self.cores.iter().map(|c| c.mem_writes).sum()
    }

    /// Total memory accesses.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_reads() + self.mem_writes()
    }

    /// Memory accesses per wall-clock cycle (the paper's top feature).
    pub fn mem_accesses_per_cycle(&self) -> f64 {
        ratio(self.mem_accesses(), self.wall_cycles())
    }

    /// Total wait cycles.
    pub fn wait_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.wait_cycles).sum()
    }

    /// Wait cycles over total cycles (the paper's `wait cycles` feature).
    pub fn wait_cycle_ratio(&self) -> f64 {
        ratio(self.wait_cycles(), self.total_cycles())
    }

    /// Core-utilisation: busy cycles over `cores × wall cycles`.
    pub fn cpu_utilization(&self) -> f64 {
        let wall = self.wall_cycles();
        if wall == 0 {
            return 0.0;
        }
        self.total_cycles() as f64 / (wall as f64 * self.cores.len() as f64)
    }

    /// Cores that retired at least one instruction.
    pub fn active_cores(&self) -> usize {
        self.cores.iter().filter(|c| c.instructions > 0).count()
    }

    /// Total DRAM read commands.
    pub fn dram_read_cmds(&self) -> u64 {
        self.mcus.iter().map(|m| m.read_cmds).sum()
    }

    /// Total DRAM write commands.
    pub fn dram_write_cmds(&self) -> u64 {
        self.mcus.iter().map(|m| m.write_cmds).sum()
    }

    /// Total DRAM commands.
    pub fn dram_cmds(&self) -> u64 {
        self.dram_read_cmds() + self.dram_write_cmds()
    }

    /// Total row activations across MCUs.
    pub fn row_activations(&self) -> u64 {
        self.mcus.iter().map(|m| m.row_activations).sum()
    }

    /// Aggregate row-buffer hit rate.
    pub fn rowbuffer_hit_rate(&self) -> f64 {
        let hits: u64 = self.mcus.iter().map(|m| m.rowbuffer_hits).sum();
        ratio(hits, self.dram_cmds())
    }
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// DRAM accesses (commands) per wall-clock second.
    fn dram_access_rate_hz(r: &SocReport) -> f64 {
        let secs = r.wall_seconds();
        if secs <= 0.0 {
            0.0
        } else {
            r.dram_cmds() as f64 / secs
        }
    }

    fn sample() -> SocReport {
        let mut cores = vec![CoreCounters::default(); 8];
        cores[0] = CoreCounters {
            instructions: 1000,
            cycles: 2000,
            mem_reads: 300,
            mem_writes: 100,
            l1d_accesses: 400,
            l1d_misses: 40,
            l2_accesses: 40,
            l2_misses: 8,
            l3_accesses: 8,
            l3_misses: 4,
            wait_cycles: 800,
            writebacks: 2,
        };
        cores[1] = CoreCounters { instructions: 500, cycles: 1000, ..Default::default() };
        let mut mcus = [McuCounters::default(); MCU_COUNT];
        mcus[0] = McuCounters { read_cmds: 4, write_cmds: 2, row_activations: 3, rowbuffer_hits: 3 };
        SocReport { cores, mcus, clock_hz: 2.4e9 }
    }

    #[test]
    fn core_derived_metrics() {
        let c = sample().cores[0];
        assert!((c.ipc() - 0.5).abs() < 1e-12);
        assert!((c.cpi() - 2.0).abs() < 1e-12);
        assert!((c.l1d_miss_rate() - 0.1).abs() < 1e-12);
        assert!((c.wait_cycle_ratio() - 0.4).abs() < 1e-12);
        assert!((c.mem_accesses_per_cycle() - 0.2).abs() < 1e-12);
        assert!((c.read_fraction() - 0.75).abs() < 1e-12);
        assert!((c.mpki() - 40.0).abs() < 1e-12);
    }

    #[test]
    fn soc_aggregates() {
        let r = sample();
        assert_eq!(r.wall_cycles(), 2000);
        assert_eq!(r.total_instructions(), 1500);
        assert_eq!(r.active_cores(), 2);
        assert!((r.ipc() - 0.75).abs() < 1e-12);
        assert!((r.cpu_utilization() - 3000.0 / 16000.0).abs() < 1e-12);
        assert_eq!(r.dram_cmds(), 6);
        assert!((r.rowbuffer_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_report_is_all_zero() {
        let r = SocReport { cores: vec![CoreCounters::default(); 8], mcus: Default::default(), clock_hz: 1.0 };
        assert_eq!(r.ipc(), 0.0);
        assert_eq!(r.wall_seconds(), 0.0);
        assert_eq!(dram_access_rate_hz(&r), 0.0);
        assert_eq!(r.active_cores(), 0);
    }

    #[test]
    fn rates_use_wall_seconds() {
        let r = sample();
        let secs = 2000.0 / 2.4e9;
        assert!((dram_access_rate_hz(&r) - 6.0 / secs).abs() < 1.0);
    }
}
