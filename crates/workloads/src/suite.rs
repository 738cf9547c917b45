//! Pre-assembled benchmark suites matching the paper's configurations.

use crate::spec::{BoxedWorkload, Scale, WorkloadId};

/// The paper's 14 characterization configurations (§IV-C, Figs. 4/7/8/9):
/// 5 compute-intensive kernels × {1, 8} threads, plus memcached, pagerank,
/// bfs and bc (8 threads each).
pub fn paper_suite(scale: Scale) -> Vec<BoxedWorkload> {
    let mut suite: Vec<BoxedWorkload> = Vec::new();
    for id in [
        WorkloadId::Backprop,
        WorkloadId::Kmeans,
        WorkloadId::Nw,
        WorkloadId::Srad,
        WorkloadId::Fmm,
    ] {
        suite.push(id.instantiate(1, scale));
        suite.push(id.instantiate(8, scale));
    }
    for id in [WorkloadId::Memcached, WorkloadId::Pagerank, WorkloadId::Bfs, WorkloadId::Bc] {
        suite.push(id.instantiate(8, scale));
    }
    suite
}

/// The paper suite plus the Fig. 13 extras: both lulesh builds and the
/// random data-pattern micro-benchmark.
pub fn full_suite(scale: Scale) -> Vec<BoxedWorkload> {
    let mut suite = paper_suite(scale);
    suite.push(WorkloadId::LuleshO2.instantiate(8, scale));
    suite.push(WorkloadId::LuleshF.instantiate(8, scale));
    suite.push(WorkloadId::MicroRandom.instantiate(1, scale));
    suite
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_suite_has_14_configs() {
        let suite = paper_suite(Scale::Test);
        assert_eq!(suite.len(), 14);
        let names: HashSet<String> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), 14, "names must be unique");
        assert!(names.contains("backprop"));
        assert!(names.contains("backprop(par)"));
        assert!(names.contains("memcached"));
        assert!(names.contains("bc"));
    }

    #[test]
    fn full_suite_adds_fig13_workloads() {
        let suite = full_suite(Scale::Test);
        assert_eq!(suite.len(), 17);
        let names: Vec<String> = suite.iter().map(|w| w.name()).collect();
        assert!(names.contains(&"lulesh(O2)".to_string()));
        assert!(names.contains(&"lulesh(F)".to_string()));
        assert!(names.contains(&"data-pattern(random)".to_string()));
    }
}
