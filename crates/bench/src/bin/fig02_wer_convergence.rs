//! Fig. 2: prints `wade_bench::experiments::fig02`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig02)
}
