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

use std::process::ExitCode;

use mwl_model::SonicCostModel;
use mwl_serve::{Response, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--max-ops N] \
         [--no-dedup] [--grid-width BITS]"
    );
    std::process::exit(2);
}

fn next_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>, name: &str) -> T {
    let raw = args.next().unwrap_or_else(|| usage());
    raw.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {name}: {raw}");
        std::process::exit(2);
    })
}

fn parse_args() -> ServerConfig {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_else(|| usage()),
            "--workers" => config.workers = next_value(&mut args, "--workers"),
            "--queue" => config.queue_capacity = next_value(&mut args, "--queue"),
            "--max-ops" => config.max_ops = next_value(&mut args, "--max-ops"),
            "--grid-width" => config.grid_width = next_value(&mut args, "--grid-width"),
            "--no-dedup" => config.dedup = false,
            _ => usage(),
        }
    }
    config.workers = config.workers.max(1);
    config.queue_capacity = config.queue_capacity.max(1);
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
