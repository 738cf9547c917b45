//! Fig. 11: prints `wade_bench::experiments::fig11`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig11)
}
