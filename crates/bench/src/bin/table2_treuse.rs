//! Table II — the average DRAM reuse time per workload.
//!
//! Paper values (seconds, 8 GB footprint): nw 10.93/4.06, srad 2.82/1.89,
//! backprop 1.61/1.10, kmeans 0.17/0.50, fmm 8.88/2.41, memcached 0.09,
//! pagerank 0.48, bfs 0.61, bc 0.56. The shape to reproduce: nw/fmm ≫
//! srad/backprop ≫ kmeans/memcached/analytics; parallel versions lower
//! except kmeans (locality inversion).

use wade_features::schema;

fn main() {
    // Shared artifact store (--store-dir / WADE_STORE_DIR / target/wade-store).
    let (_store, cache) = wade_bench::init_store();
    let server = wade_bench::server();
    let suite = wade_bench::experiment_suite();

    let paper: &[(&str, f64)] = &[
        ("nw", 10.93),
        ("nw(par)", 4.06),
        ("srad", 2.82),
        ("srad(par)", 1.89),
        ("backprop", 1.61),
        ("backprop(par)", 1.10),
        ("kmeans", 0.17),
        ("kmeans(par)", 0.50),
        ("fmm", 8.88),
        ("fmm(par)", 2.41),
        ("memcached", 0.09),
        ("pagerank", 0.48),
        ("bfs", 0.61),
        ("bc", 0.56),
    ];

    println!("Table II: average DRAM reuse time (s) at 8 GB deployment scale");
    println!("{:<18} {:>12} {:>12}", "benchmark", "paper", "measured");
    println!("{}", "-".repeat(44));
    for wl in suite.iter().take(14) {
        let p = cache.profile(
            &server,
            wl.as_ref(),
            wade_bench::CAMPAIGN_SEED,
        );
        let treuse = p.features.get(schema::TREUSE);
        let paper_val = paper
            .iter()
            .find(|(n, _)| *n == wl.name())
            .map(|(_, v)| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        println!("{:<18} {:>12} {:>12.2}", wl.name(), paper_val, treuse);
    }
}
