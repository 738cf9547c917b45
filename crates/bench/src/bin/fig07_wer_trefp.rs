//! Fig. 7: prints `wade_bench::experiments::fig07`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig07)
}
