//! Standalone node daemon: one process = one eq. (4) cluster node.
//!
//! ```text
//! node_daemon --listen 127.0.0.1:0 --workers 4 [--max-in-flight 2] [--heartbeat-ms 200]
//! ```
//!
//! Prints `listening on <addr>` once bound (port 0 resolves to the real
//! port), then serves coordinator sessions until one sends `Shutdown`.
//! The chaos test beside it (`tests/distributed.rs`) spawns this binary;
//! production deployments run one per machine. `examples/cluster.rs
//! --distributed` runs the same daemon in-process (`InProcessDaemon`).

use pmcmc_parallel::job::NodeDaemon;
use std::time::Duration;

struct Args {
    listen: String,
    workers: usize,
    max_in_flight: u32,
    heartbeat_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:0".to_owned(),
        workers: 2,
        max_in_flight: 2,
        heartbeat_ms: 200,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--listen" => args.listen = value("--listen")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-in-flight" => {
                args.max_in_flight = value("--max-in-flight")?
                    .parse()
                    .map_err(|e| format!("--max-in-flight: {e}"))?;
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = value("--heartbeat-ms")?
                    .parse()
                    .map_err(|e| format!("--heartbeat-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: node_daemon [--listen ADDR] [--workers N] \
                     [--max-in-flight N] [--heartbeat-ms M]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("node_daemon: {e}");
            std::process::exit(2);
        }
    };
    let daemon = match NodeDaemon::bind(args.listen.as_str(), args.workers) {
        Ok(daemon) => daemon
            .capacity(args.max_in_flight)
            .heartbeat_every(Duration::from_millis(args.heartbeat_ms.max(1))),
        Err(e) => {
            eprintln!("node_daemon: bind {} failed: {e}", args.listen);
            std::process::exit(1);
        }
    };
    match daemon.local_addr() {
        Ok(addr) => {
            // Parents parse this line from a pipe; flush past the block
            // buffering piped stdout gets.
            use std::io::Write;
            println!("listening on {addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("node_daemon: local_addr failed: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = daemon.serve_forever() {
        eprintln!("node_daemon: {e}");
        std::process::exit(1);
    }
}
