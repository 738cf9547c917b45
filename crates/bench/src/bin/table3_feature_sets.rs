//! Table III: prints `wade_bench::experiments::table3`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::table3)
}
