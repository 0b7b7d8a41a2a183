//! The allocation daemon binary.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-ops N]
//!       [--no-dedup] [--grid-width BITS]
//! ```
//!
//! Prints one `listening on ADDR` line to stdout once the socket is bound
//! (scripts wait for it), serves until a client sends `shutdown` (graceful
//! drain) and then prints the final statistics as one `stats` wire line.
//! A malformed argument or a zero count exits 2.

use std::process::ExitCode;

use mwl_bench::cli::Args;
use mwl_model::SonicCostModel;
use mwl_serve::{Response, Server, ServerConfig};

fn parse_args() -> ServerConfig {
    let args = Args::from_env(
        "serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-ops N] [--no-dedup] [--grid-width BITS]",
        &["--no-dedup"],
        &["--addr", "--workers", "--queue", "--max-ops", "--grid-width"],
    );
    let mut config = ServerConfig::default();
    config.addr = args.value("--addr").unwrap_or(&config.addr).to_string();
    config.workers = args.count("--workers").unwrap_or(config.workers);
    config.queue_capacity = args.count("--queue").unwrap_or(config.queue_capacity);
    config.max_ops = args.count("--max-ops").unwrap_or(config.max_ops);
    // Server::bind refuses any width past its ceiling, u32::MAX included.
    let bits = args
        .count("--grid-width")
        .map(|b| u32::try_from(b).unwrap_or(u32::MAX));
    config.grid_width = bits.unwrap_or(config.grid_width);
    config.dedup = !args.flag("--no-dedup");
    config
}

fn main() -> ExitCode {
    let config = parse_args();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("listening on {addr}"),
        Err(e) => {
            eprintln!("serve: no local address: {e}");
            return ExitCode::FAILURE;
        }
    }
    let cost = SonicCostModel::default();
    let stats = server.serve(&cost);
    println!("{}", Response::Stats(stats).encode());
    ExitCode::SUCCESS
}
