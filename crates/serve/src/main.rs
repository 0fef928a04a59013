//! `pmevo-serve` — the long-lived throughput-prediction daemon.
//!
//! ```text
//! pmevo-serve --mapping TINY=tiny.json [--mapping SKL=skl.json ...]
//!             [--tcp 127.0.0.1:7077] [--unix /tmp/pmevo.sock]
//!             [--jobs N] [--cache N] [--max-batch N] [--max-delay-ms N]
//!             [--inflight N] [--store-budget BYTES]
//! ```
//!
//! See the `pmevo-serve` library crate docs for the wire protocol.

use pmevo_core::flags::{self, byte_flag, flag, flag_all, num_flag, positive_flag, Exit};
use pmevo_serve::{store_from_specs, ServeConfig, Server};
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: pmevo-serve --mapping NAME=file.json [--mapping ...] \
     [--tcp ADDR] [--unix PATH]\n\
     \n\
     options:\n\
     \x20 --mapping NAME=file.json  mapping artifact to serve (repeatable; required)\n\
     \x20 --tcp ADDR                listen on a TCP address, e.g. 127.0.0.1:7077\n\
     \x20 --unix PATH               listen on a Unix socket path\n\
     \x20 --jobs N                  predictor worker threads (default: cores)\n\
     \x20 --cache N                 LRU cache capacity per mapping (default 65536)\n\
     \x20 --max-batch N             largest coalesced batch (default 1024)\n\
     \x20 --max-delay-ms N          coalescing window in milliseconds (default 1)\n\
     \x20 --inflight N              per-connection unanswered-line cap (default 1024)\n\
     \x20 --store-budget BYTES      mapping-payload memory budget (k/m/g suffixes;\n\
     \x20                           evicted payloads reload lazily from their artifacts)";

fn main() -> ExitCode {
    flags::run(USAGE, serve)
}

fn serve(args: &[String]) -> Result<(), Exit> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return Ok(());
    }

    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: positive_flag(args, "--jobs", defaults.workers)?,
        cache_capacity: num_flag(args, "--cache", defaults.cache_capacity)?,
        max_batch: positive_flag(args, "--max-batch", defaults.max_batch)?,
        max_delay: Duration::from_millis(num_flag(args, "--max-delay-ms", 1u64)?),
        max_inflight: positive_flag(args, "--inflight", defaults.max_inflight)?,
    };
    let budget = byte_flag(args, "--store-budget")?;
    let store = store_from_specs(&flag_all(args, "--mapping")?, budget)
        .map_err(|message| Exit::usage_error(format!("error: {message}")).with_usage())?;

    let tcp_addr = flag(args, "--tcp")?;
    let unix_path = flag(args, "--unix")?;
    if tcp_addr.is_none() && unix_path.is_none() {
        return Err(Exit::usage_error("error: at least one of --tcp ADDR or --unix PATH is required")
            .with_usage());
    }

    let server =
        Server::new(store, config).map_err(|message| Exit::failure(format!("error: {message}")))?;

    if let Some(addr) = tcp_addr {
        let listener = TcpListener::bind(&addr)
            .map_err(|e| Exit::failure(format!("error: cannot bind tcp {addr}: {e}")))?;
        // Report the bound address, not the requested one, so
        // `--tcp 127.0.0.1:0` scripts can learn the port.
        match listener.local_addr() {
            Ok(local) => eprintln!("pmevo-serve: listening on tcp://{local}"),
            Err(_) => eprintln!("pmevo-serve: listening on tcp://{addr}"),
        }
        server.listen_tcp(listener);
    }

    #[cfg(unix)]
    let unix_sock = unix_path.clone();
    #[cfg(unix)]
    if let Some(path) = &unix_sock {
        // A stale socket file from a previous run would make bind fail;
        // remove it first.
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)
            .map_err(|e| Exit::failure(format!("error: cannot bind unix socket {path}: {e}")))?;
        eprintln!("pmevo-serve: listening on unix://{path}");
        server.listen_unix(listener);
    }
    #[cfg(not(unix))]
    if unix_path.is_some() {
        return Err(Exit::failure("error: --unix is only supported on Unix platforms"));
    }

    eprintln!("pmevo-serve: ready ({} mappings loaded)", server.predictor().snapshot().len());
    server.join();
    #[cfg(unix)]
    if let Some(path) = &unix_sock {
        let _ = std::fs::remove_file(path);
    }
    eprintln!("pmevo-serve: shut down cleanly");
    Ok(())
}
