//! `secddr-serve`: the resident experiment server.
//!
//! ```text
//! secddr-serve [--port N] [--threads N]
//! ```
//!
//! Binds `127.0.0.1:PORT` (default 7441, `--port 0` for an ephemeral
//! port; `SECDDR_PORT` is the env equivalent) and serves the
//! line-delimited-JSON protocol of `secddr_service::net` until a client
//! sends `{"cmd":"shutdown"}`. The worker pool is sized by `--threads`
//! / `SECDDR_THREADS`, else host parallelism capped at 16.
//!
//! The first stdout line is `secddr-serve listening on ADDR` so
//! wrappers (CI, examples) can discover the bound address. An unknown
//! flag, a flag without its value or an unparsable value prints the
//! usage line to stderr and exits 2 (see `secddr_service::cli`).

use secddr_service::cli::Cli;
use secddr_service::{ExperimentServer, ExperimentService};
use std::io::Write;
use std::num::NonZeroUsize;

const USAGE: &str = "usage: secddr-serve [--port N] [--threads N]";

fn main() -> std::io::Result<()> {
    let cli = Cli::from_env(USAGE, &["--port", "--threads"]);
    let port: u16 = cli.value("--port", Some("SECDDR_PORT")).unwrap_or(7441);
    let service = match cli.value::<NonZeroUsize>("--threads", None) {
        Some(threads) => ExperimentService::with_threads(threads.get()),
        None => ExperimentService::new(),
    };
    let threads = service.threads();
    let server = ExperimentServer::bind(("127.0.0.1", port), service)?;
    let addr = server.local_addr()?;
    println!("secddr-serve listening on {addr} ({threads} worker threads)");
    std::io::stdout().flush()?;
    server.serve()?;
    println!("secddr-serve: clean shutdown");
    Ok(())
}
