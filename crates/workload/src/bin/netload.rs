//! `netload` — drive an `orchestrad` server with concurrent clients.
//!
//! ```text
//! netload [--addr HOST:PORT] [--serve] [--clients N] [--batches N]
//!         [--ops N] [--seed N] [--point-queries N] [--no-exchange]
//! ```
//!
//! `--serve` spins up an in-process server on a loopback port for
//! self-contained runs (CI smoke); otherwise `--addr` names a running
//! daemon. `--point-queries N` enables the bound point-query phase: after
//! the exchange, N `QueryCertainWhere` round trips with zipfian-drawn keys
//! (the indexed point-read path over the wire), reported with p50/p95/p99
//! next to the publish and exchange latencies.

use std::process::ExitCode;
use std::time::Duration;

use orchestra_net::scenario::example_scenario;
use orchestra_net::serve;
use orchestra_workload::netload::LatencySummary;
use orchestra_workload::{run_net_load, NetLoadConfig};

fn print_latency_table(title: &str, rows: &[(String, LatencySummary)]) {
    if rows.is_empty() {
        return;
    }
    println!("{title}:");
    println!(
        "  {:<24} {:>8} {:>12} {:>12} {:>12}",
        "request", "count", "p50", "p95", "p99"
    );
    for (label, s) in rows {
        println!(
            "  {:<24} {:>8} {:>12?} {:>12?} {:>12?}",
            label, s.count, s.p50, s.p95, s.p99
        );
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: netload [--addr HOST:PORT] [--serve] [--clients N] [--batches N] \
         [--ops N] [--seed N] [--point-queries N] [--no-exchange]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = NetLoadConfig::default();
    let mut self_serve = false;

    fn value(args: &[String], i: &mut usize, name: &str) -> Option<String> {
        *i += 1;
        let v = args.get(*i).cloned();
        if v.is_none() {
            eprintln!("{name} needs a value");
        }
        v
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => match value(&args, &mut i, "--addr") {
                Some(v) => config.addr = v,
                None => return usage(),
            },
            "--serve" => self_serve = true,
            "--no-exchange" => config.exchange_at_end = false,
            flag @ ("--clients" | "--batches" | "--ops" | "--seed" | "--point-queries") => {
                let flag = flag.to_string();
                let Some(v) = value(&args, &mut i, &flag) else {
                    return usage();
                };
                let Ok(n) = v.parse::<u64>() else {
                    eprintln!("{flag} needs an integer, got `{v}`");
                    return usage();
                };
                match flag.as_str() {
                    "--clients" => config.clients = n as usize,
                    "--batches" => config.batches_per_client = n as usize,
                    "--ops" => config.ops_per_batch = n as usize,
                    "--seed" => config.seed = n,
                    _ => config.point_queries = n as usize,
                }
            }
            other => {
                eprintln!("unknown flag `{other}`");
                return usage();
            }
        }
        i += 1;
    }

    let handle = if self_serve {
        match serve(example_scenario(), "127.0.0.1:0") {
            Ok(h) => {
                config.addr = h.addr().to_string();
                println!("self-serving example scenario on {}", config.addr);
                Some(h)
            }
            Err(e) => {
                eprintln!("cannot self-serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    println!(
        "netload: {} client(s) x {} batch(es) x {} op(s) against {} (seed {})",
        config.clients, config.batches_per_client, config.ops_per_batch, config.addr, config.seed
    );
    let report = match run_net_load(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("netload failed: {e}");
            if let Some(h) = handle {
                h.stop_and_join();
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "published {} ops in {} batches over {:?} ({:.0} ops/s)",
        report.published_ops, report.published_batches, report.publish_wall, report.ops_per_sec
    );
    if let Some(summary) = &report.exchange {
        println!(
            "exchange: {} batches applied across {} peers, +{} / -{} tuples in {:?}",
            summary.batches_applied,
            summary.peers_exchanged,
            summary.inserted,
            summary.deleted,
            report.exchange_wall
        );
    }
    if report.point_queries > 0 {
        println!(
            "point queries: {} zipfian bound lookups, {} answer tuples total",
            report.point_queries, report.point_query_answers
        );
    } else if config.point_queries > 0 {
        println!("point queries: skipped (target relation is empty)");
    }
    print_latency_table("client round-trip latency", &report.latencies);
    print_latency_table("server handle-time latency", &report.server_latencies);

    if let Some(h) = handle {
        let mut stopper = match orchestra_net::NetClient::connect_with_retry(
            &*config.addr,
            5,
            Duration::from_millis(50),
        ) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot reconnect to stop self-served daemon: {e}");
                return ExitCode::FAILURE;
            }
        };
        let _ = stopper.shutdown();
        h.join();
    }
    ExitCode::SUCCESS
}
