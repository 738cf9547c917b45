//! Table I: prints `wade_bench::experiments::table1`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::table1)
}
