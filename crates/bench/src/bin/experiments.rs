//! Regenerate every table/figure of the paper's evaluation (§6) and print
//! the results as text tables.
//!
//! ```text
//! cargo run -p orchestra-bench --bin experiments --release
//! ORCHESTRA_SCALE=2.0 cargo run -p orchestra-bench --bin experiments --release
//! ```
//!
//! The output of this binary is the source of the measured numbers recorded
//! in `EXPERIMENTS.md`.

use orchestra_bench::netlat::{latency_rows, p99_gate, run_net_latency};
use orchestra_bench::snapshot::{
    check_against_baseline, entry_json, merge_entry, run_magic_gate, run_obs_overhead,
    run_parallel_gate, run_pool_churn, run_publish_gate, run_publish_scaling, run_snapshot,
    run_thread_sweep,
};
use orchestra_bench::{
    run_fig10, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8, run_fig9, run_fig_recovery, Scale,
};

/// Workload-name prefixes gated by `--check`: a >25% median regression on
/// any of these vs the recorded baseline fails the run.
const GATED: [&str; 3] = ["fig5_join", "fig7_insertions", "fig9_deletions"];

/// Re-measure the snapshot workloads and gate fig5/fig7/fig9 medians
/// against a recorded baseline entry (CI regression check), then run the
/// pool-growth gate: the churn workload's `ValuePool` must be bounded by
/// the live vocabulary after compaction. Returns the exit code.
fn check_mode(baseline_path: &str, baseline_label: &str, max_ratio: f64, scale: Scale) -> i32 {
    println!(
        "check mode (scale = {}, baseline = `{baseline_label}` in {baseline_path}, limit {max_ratio}x)",
        scale.0
    );
    let baseline = match std::fs::read_to_string(baseline_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return 1;
        }
    };
    // The gated workloads run with the trace recorder *enabled* (recording
    // into the global ring, no sink attached): the envelope below proves
    // enabled-but-idle instrumentation stays within the same 25% budget as
    // any other regression, instead of getting a budget of its own.
    orchestra_obs::trace::enable();
    println!("trace recorder enabled: the gates measure instrumented runs");
    let rows = run_snapshot(scale);
    for r in &rows {
        println!("{:<36} {:>14} ns", r.workload, r.median_ns);
    }
    let perf = match check_against_baseline(&rows, &baseline, baseline_label, &GATED, max_ratio) {
        Err(e) => {
            eprintln!("check failed: {e}");
            1
        }
        Ok(offenders) if offenders.is_empty() => {
            println!("check passed: no gated workload regressed more than {max_ratio}x");
            0
        }
        Ok(offenders) => {
            for o in &offenders {
                eprintln!("REGRESSION {o}");
            }
            1
        }
    };

    let churn = run_pool_churn(scale);
    println!(
        "pool-growth gate: pool {} at churn peak -> {} after compaction (live {}, bound {})",
        churn.pool_peak,
        churn.pool_after,
        churn.live_values,
        churn.bound()
    );
    if !churn.is_bounded() {
        eprintln!(
            "POOL GROWTH: compacted pool holds {} values, exceeding the live-vocabulary bound {}",
            churn.pool_after,
            churn.bound()
        );
        return 1;
    }
    println!("pool-growth gate passed: intern memory is bounded after compaction");

    // Snapshot-read latency gate: with lock-free snapshot reads, QueryLocal
    // p99 while a bulk exchange runs must stay within a small multiple of
    // the idle p99.
    let lat = run_net_latency(scale);
    println!(
        "net-latency gate: idle p99 {:?} -> {:?} under exchange (exchange took {:?}, {} samples)",
        lat.idle.p99, lat.exchanging.p99, lat.exchange_wall, lat.exchanging.count
    );
    if let Err(e) = p99_gate(&lat) {
        eprintln!("NET LATENCY: {e}");
        return 1;
    }
    println!("net-latency gate passed: snapshot reads don't stall behind exchanges");

    // Publish-scaling gate: committing a small delta must not cost in
    // proportion to the size of the relation it touched.
    match run_publish_gate().verdict() {
        Ok(line) => println!("publish-scaling gate: {line}"),
        Err(line) => {
            eprintln!("PUBLISH SCALING: {line}");
            return 1;
        }
    }

    // Parallel speedup gate: the fixpoint engine at max threads must beat
    // the same binary pinned to one worker on the dense transitive-closure
    // workload (skipped with a note on single-core hosts, where no
    // speedup is physically possible).
    let gate = run_parallel_gate(scale);
    match gate.verdict() {
        Ok(line) => println!("parallel-speedup gate: {line}"),
        Err(e) => {
            eprintln!("PARALLEL SPEEDUP: {e}");
            return 1;
        }
    }

    // Demand-query gate: a sparse-key point query answered through the
    // magic-sets rewrite must decisively beat computing the full closure
    // and filtering — the whole point of demand-driven evaluation.
    let magic = run_magic_gate(scale);
    match magic.verdict() {
        Ok(line) => println!("demand-query gate: {line}"),
        Err(e) => {
            eprintln!("DEMAND QUERY: {e}");
            return 1;
        }
    }
    perf
}

/// Run the reduced snapshot workloads (plus the pool-churn workload) and
/// write `BENCH_joins.json`-style output (see
/// [`orchestra_bench::snapshot`]). Returns the exit code.
fn snapshot_mode(label: &str, out_path: &str, scale: Scale) -> i32 {
    println!("snapshot mode (scale = {}, label = {label})", scale.0);
    let mut rows = run_snapshot(scale);
    rows.push(run_pool_churn(scale).row);
    // Thread-count sweep: tc_fixpoint and the fig workloads with the
    // fixpoint pool pinned to 1/2/4/max workers, so recorded entries show
    // the parallel engine's speedup trajectory next to the host's core
    // count (`par_sweep/host_cores`).
    rows.extend(run_thread_sweep(scale));
    // A/B contrast of the trace recorder's cost on the incremental
    // exchange (see [`run_obs_overhead`]) — recorded so the overhead
    // trajectory is visible across PRs next to the workloads it taxes.
    rows.extend(run_obs_overhead(scale));
    // Query latency under a concurrent exchange (the rows behind the
    // p99-under-exchange CI gate).
    rows.extend(latency_rows(&run_net_latency(scale)));
    // Publish latency after a 10-tuple delta at 1k / 10k / 100k tuples (the
    // rows behind the publish-scaling gate).
    rows.extend(run_publish_scaling());
    println!(
        "{:<36} {:>14} {:>10} {:>12}",
        "workload", "median_ns", "ops", "ns/op"
    );
    for r in &rows {
        println!(
            "{:<36} {:>14} {:>10} {:>12.1}",
            r.workload, r.median_ns, r.ops, r.ns_per_op
        );
    }
    // Merge into an existing record (replacing a same-labeled entry,
    // appending otherwise) so re-runs never clobber the curated history.
    let existing = std::fs::read_to_string(out_path).ok();
    let Some(doc) = merge_entry(existing.as_deref(), label, entry_json(label, &rows)) else {
        eprintln!("{out_path} exists but is not a bench-joins-v1 document; refusing to overwrite");
        return 1;
    };
    match std::fs::write(out_path, doc) {
        Ok(()) => {
            println!("wrote {out_path} (entry `{label}`)");
            0
        }
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            1
        }
    }
}

fn main() {
    let scale = Scale::from_env();

    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    if args.iter().any(|a| a == "--check") {
        let baseline = value_of("--baseline", "BENCH_joins.json");
        let label = value_of("--against", "pr3-after");
        let max_ratio: f64 = value_of("--max-ratio", "1.25").parse().unwrap_or(1.25);
        std::process::exit(check_mode(&baseline, &label, max_ratio, scale));
    }
    if args.iter().any(|a| a == "--snapshot") {
        let label = value_of("--label", "snapshot");
        let out = value_of("--out", "BENCH_joins.json");
        std::process::exit(snapshot_mode(&label, &out, scale));
    }
    println!(
        "ORCHESTRA update-exchange experiment harness (scale = {})",
        scale.0
    );
    println!("================================================================");

    println!("\nFigure 4: deletion strategies (5 peers, integer dataset)");
    println!(
        "{:<10} {:<14} {:>12} {:>10}",
        "del.ratio", "strategy", "seconds", "deleted"
    );
    for r in run_fig4(scale) {
        println!(
            "{:<10} {:<14} {:>12.4} {:>10}",
            format!("{:.0}%", r.ratio * 100.0),
            r.strategy,
            r.seconds,
            r.deleted
        );
    }

    println!("\nFigure 5: time to compute initial instances (\"time to join\")");
    println!("{:<7} {:<9} {:>12}", "peers", "dataset", "seconds");
    for r in run_fig5(scale) {
        println!(
            "{:<7} {:<9} {:>12.4}",
            r.peers,
            r.dataset.label(),
            r.seconds
        );
    }

    println!("\nFigure 6: initial instance size");
    println!(
        "{:<7} {:>12} {:>16} {:>16}",
        "peers", "tuples", "string MiB", "integer MiB"
    );
    for r in run_fig6(scale) {
        println!(
            "{:<7} {:>12} {:>16.2} {:>16.2}",
            r.peers, r.tuples, r.string_mib, r.integer_mib
        );
    }

    println!("\nFigure 7: incremental insertions (string dataset)");
    print_incremental(&run_fig7(scale));

    println!("\nFigure 8: incremental insertions (integer dataset)");
    print_incremental(&run_fig8(scale));

    println!("\nFigure 9: incremental deletions (both datasets)");
    print_incremental(&run_fig9(scale));

    println!("\nFigure 10: effect of cycles (5 peers, integer dataset)");
    println!(
        "{:<8} {:>12} {:>16}",
        "cycles", "seconds", "fixpoint tuples"
    );
    for r in run_fig10(scale) {
        println!(
            "{:<8} {:>12.4} {:>16}",
            r.cycles, r.seconds, r.fixpoint_tuples
        );
    }

    println!("\nRecovery: WAL append throughput and recovery paths (3 peers)");
    println!(
        "{:<8} {:<10} {:>18} {:>16} {:>18}",
        "epochs", "ops/epoch", "append ops/sec", "replay sec", "snapshot-load sec"
    );
    for r in run_fig_recovery(scale) {
        println!(
            "{:<8} {:<10} {:>18.0} {:>16.4} {:>18.4}",
            r.epochs,
            r.ops_per_epoch,
            r.wal_append_ops_per_sec,
            r.replay_recovery_seconds,
            r.snapshot_recovery_seconds
        );
    }
}

fn print_incremental(rows: &[orchestra_bench::IncrementalRow]) {
    println!(
        "{:<7} {:<9} {:>8} {:>12} {:>10}",
        "peers", "dataset", "update%", "seconds", "affected"
    );
    for r in rows {
        println!(
            "{:<7} {:<9} {:>8} {:>12.4} {:>10}",
            r.peers,
            r.dataset.label(),
            format!("{:.0}%", r.update_pct * 100.0),
            r.seconds,
            r.affected
        );
    }
}
