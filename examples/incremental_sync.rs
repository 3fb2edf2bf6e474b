//! Incremental update exchange on a synthetic bioinformatics-style workload:
//! compares incremental insertion/deletion propagation against full
//! recomputation and against the DRed baseline, mirroring the measurements
//! of §6 at demo scale.
//!
//! Run with:
//! ```text
//! cargo run --example incremental_sync --release
//! ```

use std::time::Instant;

use orchestra_workload::{generate, DatasetKind, WorkloadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = WorkloadConfig {
        peers: 5,
        base_size: 150,
        dataset: DatasetKind::Integers,
        ..Default::default()
    };
    println!(
        "generating a CDSS with {} peers, {} base entries per peer ({} dataset)",
        config.peers, config.base_size, config.dataset
    );

    let mut generated = generate(&config)?;

    let start = Instant::now();
    let report = generated.load_base()?;
    println!(
        "initial load: {} derived tuples in {:?} ({} rule applications)",
        report.total_inserted(),
        start.elapsed(),
        report.eval_stats.rule_applications
    );
    let stats = generated.cdss.instance_stats();
    println!(
        "instance size: {} tuples, {:.2} MiB across {} relations",
        stats.total_tuples,
        stats.total_mib(),
        stats.relations.len()
    );

    // Incremental insertion of a 5% batch vs recomputing everything.
    let batch = generated.fresh_insertions(generated.entries_for_ratio(0.05));
    let report = generated.cdss.apply_insertions_incremental(&batch)?;
    println!(
        "\nincremental insertion of 5%: +{} tuples in {:?}",
        report.total_inserted(),
        report.duration
    );
    let report = generated.cdss.recompute_all()?;
    println!(
        "full recomputation of the same state: {} tuples in {:?}",
        report.total_inserted(),
        report.duration
    );

    // Incremental deletion of a 5% batch, versus DRed on an identical copy.
    let deletions = generated.deletion_batch(generated.entries_for_ratio(0.05));
    let report = generated.cdss.apply_deletions_incremental(&deletions)?;
    println!(
        "\nincremental (provenance-guided) deletion of 5%: -{} tuples in {:?}",
        report.total_deleted(),
        report.duration
    );

    // Re-create the pre-deletion state on a second copy and use DRed there.
    let mut dred_copy = generate(&config)?;
    dred_copy.load_base()?;
    dred_copy.cdss.apply_insertions_incremental(&batch)?;
    let report = dred_copy.cdss.apply_deletions_dred(&deletions)?;
    println!(
        "DRed deletion of the same 5%: -{} then +{} re-derived tuples in {:?}",
        report.total_deleted(),
        report.total_inserted(),
        report.duration
    );

    // Both strategies leave identical instances.
    for peer in generated.cdss.peer_ids() {
        for rel in generated.cdss.peer(&peer)?.relation_names() {
            assert_eq!(
                generated.cdss.local_instance(&peer, &rel)?,
                dred_copy.cdss.local_instance(&peer, &rel)?,
                "strategies disagree on {peer}.{rel}"
            );
        }
    }
    println!("\nincremental deletion and DRed produced identical instances ✓");

    Ok(())
}
