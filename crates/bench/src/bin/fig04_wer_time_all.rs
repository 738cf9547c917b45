//! Fig. 4: prints `wade_bench::experiments::fig04`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig04)
}
