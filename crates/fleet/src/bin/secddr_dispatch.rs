//! `secddr-dispatch`: the fleet dispatcher front-end.
//!
//! ```text
//! secddr-dispatch [--port N] [--workers a:p,b:p,…] [--log-dir DIR]
//!                 [--store-dir DIR] [--outstanding N]
//! ```
//!
//! Binds `127.0.0.1:PORT` (default 7450, `--port 0` for an ephemeral
//! port; `SECDDR_DISPATCH_PORT` is the env equivalent) and serves the
//! same line-delimited-JSON protocol as `secddr-serve`, fanning jobs
//! out to the comma-separated `--workers` / `SECDDR_WORKERS` list of
//! running `secddr-serve` addresses. `--log-dir` / `SECDDR_FLEET_LOG`
//! enables the write-ahead job log (incomplete jobs replay on start);
//! `--store-dir` / `SECDDR_FLEET_STORE` enables the on-disk result
//! store; `--outstanding` caps cells in flight per worker (default 4).
//!
//! The first stdout line is `secddr-dispatch listening on ADDR` so
//! wrappers (CI, examples) can discover the bound address. An unknown
//! flag, a flag without its value or an unparsable value prints the
//! usage line to stderr and exits 2 (see `secddr_service::cli`).

use std::io::Write;
use std::path::PathBuf;

use secddr_fleet::{Dispatcher, DispatcherConfig, FleetServer};
use secddr_service::cli::Cli;

const USAGE: &str = "usage: secddr-dispatch [--port N] [--workers a:p,b:p,...] \
                     [--log-dir DIR] [--store-dir DIR] [--outstanding N]";

fn main() -> std::io::Result<()> {
    let cli = Cli::from_env(
        USAGE,
        &[
            "--port",
            "--workers",
            "--log-dir",
            "--store-dir",
            "--outstanding",
        ],
    );
    let port: u16 = cli
        .value("--port", Some("SECDDR_DISPATCH_PORT"))
        .unwrap_or(7450);
    let workers: Vec<String> = cli
        .value::<String>("--workers", Some("SECDDR_WORKERS"))
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    let log_dir: Option<PathBuf> = cli.value("--log-dir", Some("SECDDR_FLEET_LOG"));
    let store_dir: Option<PathBuf> = cli.value("--store-dir", Some("SECDDR_FLEET_STORE"));
    let max_outstanding = cli.value("--outstanding", None).unwrap_or(4);

    let worker_count = workers.len();
    let dispatcher = Dispatcher::start(DispatcherConfig {
        workers,
        log_dir,
        store_dir,
        max_outstanding,
        ..DispatcherConfig::default()
    })?;
    let replayed = dispatcher.replayed();
    let server = FleetServer::bind(("127.0.0.1", port), dispatcher)?;
    let addr = server.local_addr()?;
    println!("secddr-dispatch listening on {addr} ({worker_count} workers, {replayed} replayed)");
    std::io::stdout().flush()?;
    server.serve()?;
    println!("secddr-dispatch: clean shutdown");
    Ok(())
}
