//! Fig. 9: prints `wade_bench::experiments::fig09`.

fn main() -> std::io::Result<()> {
    wade_bench::run(wade_bench::experiments::fig09)
}
