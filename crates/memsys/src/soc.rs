//! The SoC assembly: cores + cache hierarchy + MCUs as one `AccessSink`.

use crate::cache::Cache;
use crate::config::SocConfig;
use crate::counters::{CoreCounters, McuCounters, SocReport};
use crate::mcu::{Mcu, MCU_COUNT};
use wade_trace::{AccessSink, MemAccess, StagedAccess};

/// Trace-driven model of the eight-core server SoC.
///
/// Accesses are routed by thread id to a core, then through that core's L1D,
/// the two-core module's shared L2, the shared L3 and finally one of four
/// MCUs. Timing is in-order: every instruction costs one cycle and each miss
/// adds (partially exposed) stall cycles, which accumulate into the
/// `wait cycles` counter the paper highlights.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct Soc {
    config: SocConfig,
    cores: Vec<CoreCounters>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
    mcus: [Mcu; MCU_COUNT],
    current_tid: u8,
}

impl Soc {
    /// Builds an idle SoC.
    pub fn new(config: SocConfig) -> Self {
        Self {
            cores: vec![CoreCounters::default(); config.cores],
            l1d: (0..config.cores).map(|_| Cache::new(config.l1d)).collect(),
            l2: (0..config.pmds()).map(|_| Cache::new(config.l2)).collect(),
            l3: Cache::new(config.l3),
            mcus: Default::default(),
            current_tid: 0,
            config,
        }
    }

    fn stall(&self, penalty: u64) -> u64 {
        (penalty as f64 * self.config.stall_exposure).round() as u64
    }

    /// Snapshot of all counters.
    pub fn report(&self) -> SocReport {
        let mut mcus = [McuCounters::default(); MCU_COUNT];
        for (out, m) in mcus.iter_mut().zip(self.mcus.iter()) {
            *out = McuCounters {
                read_cmds: m.read_cmds(),
                write_cmds: m.write_cmds(),
                row_activations: m.row_activations(),
                rowbuffer_hits: (m.rowbuffer_hit_rate() * m.total_cmds() as f64).round() as u64,
            };
        }
        SocReport { cores: self.cores.clone(), mcus, clock_hz: self.config.clock_hz }
    }
}

impl Soc {
    /// The shared per-access routing of both sink paths.
    #[inline]
    fn route_access(&mut self, access: MemAccess) {
        let core_id = (access.tid as usize) % self.config.cores;
        self.current_tid = access.tid;
        let is_write = access.is_write();
        let addr = access.addr;

        // Retire the memory instruction itself.
        {
            let core = &mut self.cores[core_id];
            core.instructions += 1;
            core.cycles += 1;
            if is_write {
                core.mem_writes += 1;
            } else {
                core.mem_reads += 1;
            }
            core.l1d_accesses += 1;
        }

        // L1D.
        let l1_result = self.l1d[core_id].access(addr, is_write);
        if let crate::cache::AccessResult::Miss { writeback } = l1_result {
            let stall_l2 = self.stall(self.config.l2_latency);
            let pmd = core_id / 2;
            {
                let core = &mut self.cores[core_id];
                core.l1d_misses += 1;
                core.cycles += stall_l2;
                core.wait_cycles += stall_l2;
                core.l2_accesses += 1;
            }
            if let Some(victim) = writeback {
                self.cores[core_id].writebacks += 1;
                // Victim is installed into L2 (write-back, no recursive fill).
                let _ = self.l2[pmd].access(victim, true);
            }

            // L2.
            let l2_result = self.l2[pmd].access(addr, is_write);
            if let crate::cache::AccessResult::Miss { writeback } = l2_result {
                let stall_l3 = self.stall(self.config.l3_latency);
                {
                    let core = &mut self.cores[core_id];
                    core.l2_misses += 1;
                    core.cycles += stall_l3;
                    core.wait_cycles += stall_l3;
                    core.l3_accesses += 1;
                }
                if let Some(victim) = writeback {
                    self.cores[core_id].writebacks += 1;
                    let _ = self.l3.access(victim, true);
                }

                // L3.
                let l3_result = self.l3.access(addr, is_write);
                if let crate::cache::AccessResult::Miss { writeback } = l3_result {
                    let stall_dram = self.stall(self.config.dram_latency);
                    {
                        let core = &mut self.cores[core_id];
                        core.l3_misses += 1;
                        core.cycles += stall_dram;
                        core.wait_cycles += stall_dram;
                    }
                    if let Some(victim) = writeback {
                        self.cores[core_id].writebacks += 1;
                        self.mcus[Mcu::route(victim)].command(victim, true);
                    }
                    // Line fill from DRAM.
                    self.mcus[Mcu::route(addr)].command(addr, false);
                }
            }
        }
    }

    /// Non-memory instructions are attributed to the core of the most
    /// recent access (kernels interleave gap batches with their accesses).
    #[inline]
    fn retire_gap(&mut self, count: u64) {
        let core_id = (self.current_tid as usize) % self.config.cores;
        let core = &mut self.cores[core_id];
        core.instructions += count;
        core.cycles += count;
    }
}

impl AccessSink for Soc {
    fn on_access(&mut self, access: MemAccess) {
        self.route_access(access);
    }

    fn on_instructions(&mut self, count: u64) {
        self.retire_gap(count);
    }

    fn on_accesses(&mut self, batch: &[StagedAccess]) {
        // One virtual boundary per slice. Each gap retires on the core of
        // the access *preceding* it (`current_tid` is still that access's
        // thread), exactly as in the interleaved call stream.
        for staged in batch {
            if staged.gap_before > 0 {
                self.retire_gap(staged.gap_before);
            }
            self.route_access(staged.access);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wade_trace::synthetic::StridedSweep;

    #[test]
    fn small_working_set_stays_in_l1() {
        let mut soc = Soc::new(SocConfig::x_gene2());
        // 2 KiB working set swept many times fits the 32 KiB L1D.
        let sweep = StridedSweep { words: 256, passes: 50, stride: 1, gap: 2 };
        sweep.run(&mut soc, 1);
        let r = soc.report();
        assert!(r.cores[0].l1d_miss_rate() < 0.01, "{}", r.cores[0].l1d_miss_rate());
        assert!(r.cores[0].ipc() > 0.9);
    }

    #[test]
    fn huge_working_set_reaches_dram() {
        let mut soc = Soc::new(SocConfig::tiny_for_tests());
        let sweep = StridedSweep {
            words: 1 << 18, // 2 MiB >> 16 KiB tiny L3
            passes: 1,
            stride: 8, // one access per line
            gap: 1,
        };
        sweep.run(&mut soc, 2);
        let r = soc.report();
        assert!(r.dram_cmds() > 10_000, "dram cmds: {}", r.dram_cmds());
        assert!(r.wait_cycle_ratio() > 0.3);
        assert!(r.ipc() < 1.0);
    }

    #[test]
    fn threads_spread_across_cores() {
        let mut soc = Soc::new(SocConfig::x_gene2());
        for tid in 0..8u8 {
            for i in 0..100u64 {
                soc.on_access(MemAccess::read(i * 64 + ((tid as u64) << 20), tid));
                soc.on_instructions(5);
            }
        }
        let r = soc.report();
        assert_eq!(r.active_cores(), 8);
        assert!(r.cpu_utilization() > 0.9);
    }

    #[test]
    fn writebacks_generate_dram_writes() {
        let mut soc = Soc::new(SocConfig::tiny_for_tests());
        // Write-sweep far beyond the hierarchy: every fill eventually evicts
        // a dirty line all the way out to DRAM.
        let sweep = StridedSweep {
            words: 1 << 17, // 1 MiB
            passes: 2,
            stride: 8, // one access per line
            gap: 0,
        };
        sweep.run(&mut soc, 3);
        let r = soc.report();
        assert!(r.dram_write_cmds() > 1000, "writes: {}", r.dram_write_cmds());
    }

    #[test]
    fn instruction_batches_attribute_to_last_tid() {
        let mut soc = Soc::new(SocConfig::x_gene2());
        soc.on_access(MemAccess::read(0, 5));
        soc.on_instructions(100);
        let r = soc.report();
        assert_eq!(r.cores[5].instructions, 101);
    }

    #[test]
    fn wall_cycles_is_max_core() {
        let mut soc = Soc::new(SocConfig::x_gene2());
        soc.on_access(MemAccess::read(0, 0));
        soc.on_instructions(10);
        soc.on_access(MemAccess::read(1 << 22, 1));
        let r = soc.report();
        assert_eq!(r.wall_cycles(), r.cores.iter().map(|c| c.cycles).max().unwrap());
    }
}
