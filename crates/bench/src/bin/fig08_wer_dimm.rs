//! Fig. 8: prints `wade_bench::experiments::fig08`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig08)
}
