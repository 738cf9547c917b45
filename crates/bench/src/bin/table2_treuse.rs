//! Table II: prints `wade_bench::experiments::table2`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::table2)
}
