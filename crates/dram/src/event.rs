//! Error events produced by a characterization run.

use crate::geometry::RankId;
use serde::{Deserialize, Serialize};

/// One correctable error: a unique 64-bit word observed with a single-bit
/// corruption (the SLIMpro report of the paper's framework carries the same
/// location information).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CeEvent {
    /// Seconds into the run when the error was first observed.
    pub t_s: f64,
    /// Word index within the allocation.
    pub word: u64,
    /// Bit lane within the 72-bit stored word.
    pub lane: u8,
    /// Rank the word resides on.
    pub rank: RankId,
}

/// An uncorrectable (detected multi-bit) error. On the paper's framework
/// any detected UE crashes the system, ending the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UeEvent {
    /// Seconds into the run when the UE fired.
    pub t_s: f64,
    /// Rank that produced the UE.
    pub rank: RankId,
}

/// Outcome of one simulated characterization run (one benchmark execution
/// at one operating point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Unique-word correctable errors, sorted by discovery time.
    pub ce_events: Vec<CeEvent>,
    /// The crash-inducing UE, if one fired.
    pub ue: Option<UeEvent>,
    /// Allocated footprint (64-bit words), the WER denominator (eq. 2).
    pub footprint_words: u64,
    /// Requested run duration (s); the effective duration is shorter when a
    /// UE crashed the run.
    pub duration_s: f64,
}

impl RunResult {
    /// The word error rate, eq. 2: unique CE words / footprint words.
    pub fn wer(&self) -> f64 {
        self.ce_events.len() as f64 / self.footprint_words as f64
    }

    /// WER observed up to time `t_s` (for convergence timelines, Figs. 2/4).
    pub fn wer_at(&self, t_s: f64) -> f64 {
        let n = self.ce_events.iter().take_while(|e| e.t_s <= t_s).count();
        n as f64 / self.footprint_words as f64
    }

    /// CE counts grouped per rank (Fig. 8). Denominator remains the full
    /// footprint, matching the paper's per-DIMM/rank WER plots.
    pub fn wer_per_rank(&self) -> [f64; crate::RANK_COUNT] {
        let mut counts = [0u64; crate::RANK_COUNT];
        for e in &self.ce_events {
            counts[e.rank.index()] += 1;
        }
        let mut wer = [0.0; crate::RANK_COUNT];
        for (w, &c) in wer.iter_mut().zip(counts.iter()) {
            *w = c as f64 / self.footprint_words as f64;
        }
        wer
    }

    /// True when the run crashed with an uncorrectable error.
    pub fn crashed(&self) -> bool {
        self.ue.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            ce_events: vec![
                CeEvent { t_s: 10.0, word: 5, lane: 3, rank: RankId::from_index(0) },
                CeEvent { t_s: 100.0, word: 9, lane: 1, rank: RankId::from_index(0) },
                CeEvent { t_s: 500.0, word: 77, lane: 70, rank: RankId::from_index(3) },
            ],
            ue: None,
            footprint_words: 1000,
            duration_s: 7200.0,
        }
    }

    #[test]
    fn wer_counts_unique_words() {
        assert!((sample().wer() - 0.003).abs() < 1e-12);
    }

    #[test]
    fn wer_timeline_is_monotone() {
        let r = sample();
        assert_eq!(r.wer_at(0.0), 0.0);
        assert!((r.wer_at(50.0) - 0.001).abs() < 1e-12);
        assert!((r.wer_at(7200.0) - r.wer()).abs() < 1e-15);
    }

    #[test]
    fn per_rank_split() {
        let r = sample();
        let per = r.wer_per_rank();
        assert!((per[0] - 0.002).abs() < 1e-12);
        assert!((per[3] - 0.001).abs() < 1e-12);
        assert_eq!(per[1], 0.0);
        let sum: f64 = per.iter().sum();
        assert!((sum - r.wer()).abs() < 1e-12);
    }

    /// Effective observation window (until crash or completion).
    fn effective_duration_s(r: &RunResult) -> f64 {
        r.ue.map_or(r.duration_s, |ue| ue.t_s.min(r.duration_s))
    }

    #[test]
    fn crash_truncates_duration() {
        let mut r = sample();
        assert!(!r.crashed());
        assert_eq!(effective_duration_s(&r), 7200.0);
        r.ue = Some(UeEvent { t_s: 3600.0, rank: RankId::from_index(2) });
        assert!(r.crashed());
        assert_eq!(effective_duration_s(&r), 3600.0);
    }
}
