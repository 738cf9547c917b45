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
    let args: Vec<String> = std::env::args().collect();
    let mut addr = "127.0.0.1:7878".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    addr = v.clone();
                    i += 1;
                }
                _ => {
                    eprintln!("error: --addr requires a HOST:PORT value");
                    std::process::exit(2);
                }
            },
            // Consumed by wade_bench::store_dir() from the raw argv.
            "--store-dir" => i += 1,
            other => {
                eprintln!("usage: serve [--addr HOST:PORT] [--store-dir DIR]   (got {other:?})");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let (store, cache) = wade_bench::init_store();
    let data = wade_bench::full_campaign_data(&store, &cache);
    eprintln!(
        "[serve] {} campaign rows, store {}",
        data.rows.len(),
        store.root().display()
    );
    let config = ServeConfig {
        addr,
        reload_poll: Some(Duration::from_millis(500)),
        ..ServeConfig::default()
    };
    let server = match Server::start(config, data, Some(store)) {
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
