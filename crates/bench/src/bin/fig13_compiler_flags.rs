//! Fig. 13: prints `wade_bench::experiments::fig13`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig13)
}
