//! `serve` — the long-running prediction service over the full campaign.
//!
//! Boots the shared artifact store (`--store-dir DIR` / `WADE_STORE_DIR`
//! / `target/wade-store`), loads or collects the full-suite campaign at
//! the configured scale (`WADE_SCALE=test` for the reduced inputs), loads
//! or trains the serving models through the store, and serves until
//! killed. Model artifacts are watched for changes, so re-publishing a
//! model into the store hot-swaps it into the running server.
//!
//! Usage: `cargo run --release -p wade-bench --bin serve [-- --addr
//! HOST:PORT] [--store-dir DIR]`, then:
//!
//! ```text
//! curl http://127.0.0.1:7878/healthz
//! curl -X POST http://127.0.0.1:7878/predict -d '{"model":"KNN","rows":[…]}'
//! curl http://127.0.0.1:7878/metrics
//! ```

use std::time::Duration;
use wade_serve::{ServeConfig, Server};

fn main() {
    let (lab, args) =
        wade_bench::Lab::from_args(&["--addr"], "[--addr HOST:PORT] [--store-dir DIR]");
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7878").to_string();
    let data = lab.campaign();
    eprintln!(
        "[serve] {} campaign rows, store {}",
        data.rows.len(),
        lab.store.root().display()
    );
    let config = ServeConfig { addr, reload_poll: Some(Duration::from_millis(500)) };
    let server = match Server::start(config, data, Some(lab.store)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind serving socket: {e}");
            std::process::exit(1);
        }
    };
    println!("wade-serve listening on http://{}", server.addr());
    loop {
        std::thread::park();
    }
}
