//! Runs every experiment and writes `EXPERIMENTS.md` with a
//! paper-vs-measured row per table and figure
//! (`wade_bench::experiments::report`).

fn main() {
    let md = wade_bench::experiments::report(&wade_bench::Lab::open());
    std::fs::write("EXPERIMENTS.md", &md).expect("write EXPERIMENTS.md");
    println!("{md}");
    println!("wrote EXPERIMENTS.md");
}
