//! Fig. 12: prints `wade_bench::experiments::fig12`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig12)
}
