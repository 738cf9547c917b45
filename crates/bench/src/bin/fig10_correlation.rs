//! Fig. 10: prints `wade_bench::experiments::fig10`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig10)
}
