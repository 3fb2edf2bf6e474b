//! Evaluation statistics collected by the engine.
//!
//! The experimental section of the paper reasons about the *number of
//! queries executed*, the *number of fixpoint iterations*, and the volume of
//! data carried around (strings vs integers). [`EvalStats`] captures those
//! quantities so the `experiments` tables and `BENCH_joins.json` can report
//! them alongside wall-clock time.

use std::fmt;
use std::ops::AddAssign;

/// Counters describing one evaluation (or one incremental propagation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of fixpoint iterations executed (summed over strata).
    pub iterations: usize,
    /// Number of individual rule applications (one rule evaluated once in
    /// one iteration).
    pub rule_applications: usize,
    /// Number of head tuples produced by rule applications, before
    /// de-duplication against the existing instance.
    pub tuples_derived: usize,
    /// Number of tuples that were actually new and inserted.
    pub tuples_inserted: usize,
    /// Number of tuples removed (only populated by deletion procedures).
    pub tuples_deleted: usize,
    /// Number of persistent index probes performed.
    pub index_probes: usize,
    /// Number of derived tuples rejected by the derivation filter
    /// (trust conditions).
    pub filtered_out: usize,
    /// Number of candidate tuples examined by the join pipeline across all
    /// levels (after index probing, before bound-column verification). The
    /// ratio of `candidates_scanned` to `tuples_derived` measures join
    /// selectivity: a well-ordered body keeps it close to 1.
    pub candidates_scanned: usize,
    /// Number of on-the-fly hash indexes built over semi-naive delta sets
    /// (only deltas above a size threshold are worth indexing; smaller ones
    /// are scanned linearly).
    pub delta_indexes_built: usize,
    /// Number of rule applications that ran with a cost-reordered body (the
    /// greedy most-bound / smallest-relation-first plan differed from the
    /// written body order).
    pub reorders_applied: usize,
    /// Value-intern requests that found the value already pooled. Together
    /// with `intern_misses` this measures how much of the evaluation's
    /// vocabulary was reused instead of re-materialised: a high hit rate
    /// means inserted tuples moved as dense ids, not payload copies.
    pub intern_hits: usize,
    /// Value-intern requests that admitted a new value to the pool.
    pub intern_misses: usize,
    /// Compiled join plans reused from the cross-evaluation [`PlanCache`]
    /// (`crate::plan::PlanCache`) instead of being recompiled.
    pub plan_cache_hits: usize,
    /// Always 0: every fixpoint round runs inline on the caller. Kept so
    /// readers of the former worker-pool counters still compile.
    pub parallel_tasks_spawned: usize,
    /// Always 0, like `parallel_tasks_spawned`.
    pub parallel_chunks_merged: usize,
}

impl EvalStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        EvalStats::default()
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        *self += *other;
    }

    /// Add this counter set into the process-global metrics registry
    /// (`eval_*_total` series), so scrapes see cumulative evaluation
    /// work without threading `EvalStats` through every caller. Handles
    /// are resolved once and cached; recording is 13 relaxed adds.
    pub fn record_to_registry(&self) {
        use std::sync::OnceLock;
        static HANDLES: OnceLock<[orchestra_obs::Counter; 13]> = OnceLock::new();
        let handles = HANDLES.get_or_init(|| {
            // Nothing adds to the next two; they stay in the exposition
            // at 0 because a traced `cdss_bench` `served_mixed` run
            // panics if either is missing. Read as
            // `datalog.magic_seed_facts`:
            let _ = orchestra_obs::counter("eval_demand_seed_facts_total");
            // Read as `datalog.demand_rules_fired`:
            let _ = orchestra_obs::counter("eval_demand_rules_fired_total");
            [
                orchestra_obs::counter("eval_iterations_total"),
                orchestra_obs::counter("eval_rule_applications_total"),
                orchestra_obs::counter("eval_tuples_derived_total"),
                orchestra_obs::counter("eval_tuples_inserted_total"),
                orchestra_obs::counter("eval_tuples_deleted_total"),
                orchestra_obs::counter("eval_index_probes_total"),
                orchestra_obs::counter("eval_filtered_out_total"),
                orchestra_obs::counter("eval_candidates_scanned_total"),
                orchestra_obs::counter("eval_delta_indexes_built_total"),
                orchestra_obs::counter("eval_reorders_applied_total"),
                orchestra_obs::counter("eval_intern_hits_total"),
                orchestra_obs::counter("eval_intern_misses_total"),
                orchestra_obs::counter("eval_plan_cache_hits_total"),
            ]
        });
        let values = [
            self.iterations,
            self.rule_applications,
            self.tuples_derived,
            self.tuples_inserted,
            self.tuples_deleted,
            self.index_probes,
            self.filtered_out,
            self.candidates_scanned,
            self.delta_indexes_built,
            self.reorders_applied,
            self.intern_hits,
            self.intern_misses,
            self.plan_cache_hits,
        ];
        for (handle, v) in handles.iter().zip(values) {
            if v > 0 {
                handle.add(v as u64);
            }
        }
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, o: EvalStats) {
        self.iterations += o.iterations;
        self.rule_applications += o.rule_applications;
        self.tuples_derived += o.tuples_derived;
        self.tuples_inserted += o.tuples_inserted;
        self.tuples_deleted += o.tuples_deleted;
        self.index_probes += o.index_probes;
        self.filtered_out += o.filtered_out;
        self.candidates_scanned += o.candidates_scanned;
        self.delta_indexes_built += o.delta_indexes_built;
        self.reorders_applied += o.reorders_applied;
        self.intern_hits += o.intern_hits;
        self.intern_misses += o.intern_misses;
        self.plan_cache_hits += o.plan_cache_hits;
        self.parallel_tasks_spawned += o.parallel_tasks_spawned;
        self.parallel_chunks_merged += o.parallel_chunks_merged;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "iterations={} rule_apps={} derived={} inserted={} deleted={} probes={} filtered={} candidates={} delta_indexes={} reorders={} intern_hits={} intern_misses={} plan_cache_hits={} parallel_tasks={} parallel_chunks={}",
            self.iterations,
            self.rule_applications,
            self.tuples_derived,
            self.tuples_inserted,
            self.tuples_deleted,
            self.index_probes,
            self.filtered_out,
            self.candidates_scanned,
            self.delta_indexes_built,
            self.reorders_applied,
            self.intern_hits,
            self.intern_misses,
            self.plan_cache_hits,
            self.parallel_tasks_spawned,
            self.parallel_chunks_merged
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = EvalStats {
            iterations: 1,
            rule_applications: 2,
            tuples_derived: 3,
            tuples_inserted: 4,
            tuples_deleted: 5,
            index_probes: 7,
            filtered_out: 8,
            candidates_scanned: 9,
            delta_indexes_built: 10,
            reorders_applied: 11,
            intern_hits: 12,
            intern_misses: 13,
            plan_cache_hits: 14,
            parallel_tasks_spawned: 15,
            parallel_chunks_merged: 16,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.iterations, 2);
        assert_eq!(a.rule_applications, 4);
        assert_eq!(a.tuples_derived, 6);
        assert_eq!(a.tuples_inserted, 8);
        assert_eq!(a.tuples_deleted, 10);
        assert_eq!(a.index_probes, 14);
        assert_eq!(a.filtered_out, 16);
        assert_eq!(a.candidates_scanned, 18);
        assert_eq!(a.delta_indexes_built, 20);
        assert_eq!(a.reorders_applied, 22);
        assert_eq!(a.intern_hits, 24);
        assert_eq!(a.intern_misses, 26);
        assert_eq!(a.plan_cache_hits, 28);
        assert_eq!(a.parallel_tasks_spawned, 30);
        assert_eq!(a.parallel_chunks_merged, 32);
    }

    #[test]
    fn registry_bridge_accumulates_counters() {
        let before = orchestra_obs::global()
            .counter_value("eval_iterations_total", &[])
            .unwrap_or(0);
        let s = EvalStats {
            iterations: 3,
            ..EvalStats::default()
        };
        s.record_to_registry();
        let after = orchestra_obs::global()
            .counter_value("eval_iterations_total", &[])
            .unwrap();
        // Other tests in this binary evaluate concurrently, so the
        // global counter may have moved by more than our contribution.
        assert!(after >= before + 3);
    }

    #[test]
    fn exposition_keeps_the_retired_demand_series_after_an_evaluation() {
        let program = crate::parse_program("q(x) :- p(x).").unwrap();
        let mut db = orchestra_storage::Database::new();
        crate::Evaluator::new()
            .fixpoint(
                &mut crate::PlanCache::new(),
                &program,
                &mut db,
                crate::Seed::All,
                None,
            )
            .unwrap();
        let text = orchestra_obs::global().render();
        for series in [
            "eval_demand_seed_facts_total",
            "eval_demand_rules_fired_total",
        ] {
            assert!(
                text.contains(series),
                "`{series}` missing from the exposition"
            );
        }
    }

    #[test]
    fn display_includes_all_counters() {
        let s = EvalStats::new().to_string();
        for key in [
            "iterations",
            "rule_apps",
            "derived",
            "inserted",
            "deleted",
            "probes",
            "filtered",
            "candidates",
            "delta_indexes",
            "reorders",
            "intern_hits",
            "intern_misses",
            "plan_cache_hits",
            "parallel_tasks",
            "parallel_chunks",
        ] {
            assert!(s.contains(key), "missing {key} in `{s}`");
        }
    }
}
