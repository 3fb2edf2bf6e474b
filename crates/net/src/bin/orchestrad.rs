//! `orchestrad` — the ORCHESTRA CDSS network daemon.
//!
//! Serves a CDSS over the `orchestra-net` wire protocol. Without flags it
//! hosts the paper's three-peer bioinformatics scenario in memory:
//!
//! ```text
//! orchestrad [--addr 127.0.0.1:4747] [--data-dir DIR] [--smoke]
//!            [--trace FILE] [--metrics-every N]
//! ```
//!
//! * `--addr` — listen address (use port 0 for an ephemeral port).
//! * `--data-dir` — persistence directory: recovered with
//!   `Cdss::open_or_recover` when it already holds state, initialised with
//!   the example scenario otherwise. `Checkpoint` requests then fold the
//!   WAL into a snapshot.
//! * `--trace FILE` — enable structured tracing and write the recorded
//!   spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto) to
//!   `FILE` at shutdown.
//! * `--metrics-every N` — print the metrics exposition to stdout every
//!   `N` seconds while serving.
//! * `--smoke` — self-test: start the server on an ephemeral port, run a
//!   scripted client session (publish → exchange → query → provenance →
//!   stats → metrics → checkpoint if persistent → shutdown), print the
//!   final metrics exposition and `SMOKE OK`, and exit non-zero on any
//!   failure. Used by CI.
//!
//! The daemon exits when a client sends `Shutdown`.

use std::process::ExitCode;

use orchestra_core::Cdss;
use orchestra_net::scenario::{example_scenario, example_scenario_builder};
use orchestra_net::{serve, EditBatch, NetClient, NetError};
use orchestra_storage::tuple::int_tuple;

struct Args {
    addr: String,
    data_dir: Option<String>,
    smoke: bool,
    trace: Option<String>,
    metrics_every: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:4747".to_string(),
        data_dir: None,
        smoke: false,
        trace: None,
        metrics_every: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                args.addr = it.next().ok_or("--addr requires a value")?;
            }
            "--data-dir" => {
                args.data_dir = Some(it.next().ok_or("--data-dir requires a value")?);
            }
            "--trace" => {
                args.trace = Some(it.next().ok_or("--trace requires a file path")?);
            }
            "--metrics-every" => {
                let raw = it.next().ok_or("--metrics-every requires a value")?;
                let secs: u64 = raw
                    .parse()
                    .map_err(|_| format!("--metrics-every: `{raw}` is not a number of seconds"))?;
                if secs == 0 {
                    return Err("--metrics-every requires a positive number of seconds".into());
                }
                args.metrics_every = Some(secs);
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                println!(
                    "usage: orchestrad [--addr HOST:PORT] [--data-dir DIR] \
                     [--trace FILE] [--metrics-every N] [--smoke]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn build_cdss(data_dir: Option<&str>) -> Result<Cdss, String> {
    let Some(dir) = data_dir else {
        return Ok(example_scenario());
    };
    if orchestra_persist::PersistentStore::holds_state(dir) {
        let (cdss, report) =
            Cdss::open_or_recover(dir).map_err(|e| format!("recovering {dir}: {e}"))?;
        orchestra_obs::log::info(
            "orchestrad",
            "recovered",
            &[
                ("dir", dir.to_string()),
                ("snapshot_epoch", report.snapshot_epoch.to_string()),
                ("replayed_epochs", report.replayed_epochs.to_string()),
            ],
        );
        Ok(cdss)
    } else {
        example_scenario_builder()
            .with_persistence(dir)
            .build()
            .map_err(|e| format!("initialising {dir}: {e}"))
    }
}

/// The scripted loopback session exercised by `--smoke`. Returns the
/// server's metrics exposition so CI can grep the expected series.
fn run_smoke(addr: std::net::SocketAddr, persistent: bool) -> Result<String, NetError> {
    let mut client = NetClient::connect_with_retry(addr, 20, std::time::Duration::from_millis(50))?;

    client.publish_edits(
        EditBatch::for_peer("PGUS").insert("G", vec![int_tuple(&[1, 2, 3]), int_tuple(&[3, 5, 2])]),
    )?;
    client.publish_edits(EditBatch::for_peer("PBioSQL").insert("B", vec![int_tuple(&[3, 5])]))?;
    client.publish_edits(EditBatch::for_peer("PuBio").insert("U", vec![int_tuple(&[2, 5])]))?;

    let summary = client.update_exchange(None)?;
    if summary.batches_applied != 3 {
        return Err(NetError::protocol(format!(
            "expected 3 batches applied, got {}",
            summary.batches_applied
        )));
    }

    let b = client.query_certain("PBioSQL", "B")?;
    if b.len() != 4 {
        return Err(NetError::protocol(format!(
            "expected 4 certain B tuples, got {}",
            b.len()
        )));
    }

    let prov = client.provenance_of("B", int_tuple(&[3, 2]))?;
    if prov.derivations != 2 || !prov.derivable {
        return Err(NetError::protocol(format!(
            "unexpected provenance answer: {prov:?}"
        )));
    }

    let stats = client.stats()?;
    if stats.peers != 3 || stats.pending_batches != 0 {
        return Err(NetError::protocol(format!("unexpected stats: {stats:?}")));
    }

    let metrics = client.metrics()?;
    for series in ["requests_total", "request_latency_seconds"] {
        if !metrics.contains(series) {
            return Err(NetError::protocol(format!(
                "metrics exposition is missing `{series}`"
            )));
        }
    }

    if persistent {
        client.checkpoint()?;
    }

    client.shutdown()?;
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("orchestrad: {e}");
            return ExitCode::FAILURE;
        }
    };

    if args.trace.is_some() {
        orchestra_obs::trace::enable();
    }

    let cdss = match build_cdss(args.data_dir.as_deref()) {
        Ok(cdss) => cdss,
        Err(e) => {
            eprintln!("orchestrad: {e}");
            return ExitCode::FAILURE;
        }
    };

    let addr = if args.smoke {
        "127.0.0.1:0"
    } else {
        &args.addr
    };
    let handle = match serve(cdss, addr) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("orchestrad: failed to serve on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("orchestrad: listening on {}", handle.addr());

    let exit = if args.smoke {
        let result = run_smoke(handle.addr(), args.data_dir.is_some());
        // A failed session may never have sent Shutdown; stop the server
        // ourselves so a broken smoke test exits non-zero instead of
        // hanging in join(). stop() is idempotent after a clean Shutdown.
        handle.stop();
        handle.join();
        match result {
            Ok(metrics) => {
                print!("{metrics}");
                println!("SMOKE OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("orchestrad: smoke test failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        if let Some(secs) = args.metrics_every {
            // The probe keeps none of the server's shared state alive, so
            // this thread cannot interfere with join(); it dies with the
            // process.
            let interval = std::time::Duration::from_secs(secs);
            let probe = handle.metrics_probe();
            std::thread::Builder::new()
                .name("orchestrad-metrics".into())
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    print!("{}", probe.render());
                })
                .ok();
        }
        handle.join();
        println!("orchestrad: shut down");
        ExitCode::SUCCESS
    };

    if let Some(path) = &args.trace {
        match orchestra_obs::trace::write_chrome_trace(path) {
            Ok(n) => eprintln!("orchestrad: wrote {n} trace events to {path}"),
            Err(e) => {
                eprintln!("orchestrad: failed to write trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    exit
}
