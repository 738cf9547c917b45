//! Fig. 3: prints `wade_bench::experiments::fig03`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig03)
}
