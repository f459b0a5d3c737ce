//! The one table of experiments. `report <x>`, `report list`, `report
//! all` and `report timings` all read [`REGISTRY`]; nothing else names an
//! experiment.

use crate::experiments::*;
use crate::swept::{c12_replication, c14_shard, c16_erasure};

/// One reproduction experiment, as every `report` surface sees it.
pub struct Experiment {
    /// The key `report timings` and `BENCH_report.json` record it under.
    pub(crate) name: &'static str,
    /// What `report <x>` accepts; the first is what `report list` prints.
    pub aliases: &'static [&'static str],
    pub run: fn() -> String,
    /// Part of `report all`, which runs its members in table order.
    pub in_all: bool,
    /// Part of `report timings` and its [`suite_ceiling_s`] budget.
    pub(crate) timed: bool,
    /// Wall-clock on the single-core serial path when the suite ceiling was
    /// calibrated: the column `report timings` prints its deltas against.
    pub(crate) baseline_s: f64,
}

/// `report all` is rows 1–15. Its trace row is the variant without the
/// host-side sections (soft-TLB, pool and quorum counters vary with the
/// host and the pool width, so they may not enter the pinned output);
/// `report trace` is the last row, which prints them. The standalone
/// experiments stay out of `all` so its pinned output never moves; C11
/// stays out of the timed suite too, because the full crash matrix runs
/// for tens of seconds under a ceiling of its own (`ci.sh`).
#[rustfmt::skip]
pub const REGISTRY: &[Experiment] = &[
    Experiment { name: "table1", aliases: &["table1", "t1"], run: t1_table, in_all: true, timed: true, baseline_s: 0.000 },
    Experiment { name: "figure1", aliases: &["figure1", "f1"], run: f1_figure, in_all: true, timed: true, baseline_s: 0.000 },
    Experiment { name: "c1_gather", aliases: &["c1", "claims"], run: c1_gather, in_all: true, timed: true, baseline_s: 0.066 },
    Experiment { name: "c2_incremental", aliases: &["c2", "incremental"], run: c2_incremental, in_all: true, timed: true, baseline_s: 0.105 },
    Experiment { name: "c3_blocksize", aliases: &["c3", "blocksize"], run: c3_blocksize, in_all: true, timed: true, baseline_s: 0.056 },
    Experiment { name: "c3b_omission", aliases: &["c3b", "omission"], run: c3b_omission, in_all: true, timed: true, baseline_s: 0.000 },
    Experiment { name: "c4_mechanisms", aliases: &["c4", "mechanisms"], run: c4_mechanisms, in_all: true, timed: true, baseline_s: 1.268 },
    Experiment { name: "c5_fork", aliases: &["c5", "fork"], run: c5_fork, in_all: true, timed: true, baseline_s: 0.260 },
    Experiment { name: "c6_storage", aliases: &["c6", "storage"], run: c6_storage, in_all: true, timed: true, baseline_s: 0.089 },
    Experiment { name: "c7a_cluster_mechanistic", aliases: &["c7a"], run: c7_cluster_mechanistic, in_all: true, timed: true, baseline_s: 1.794 },
    Experiment { name: "c7b_cluster_scale", aliases: &["c7b", "cluster"], run: c7_cluster_scale, in_all: true, timed: true, baseline_s: 1.961 },
    Experiment { name: "c8_migration", aliases: &["c8", "migration"], run: c8_migration, in_all: true, timed: true, baseline_s: 0.099 },
    Experiment { name: "c9_batch_vs_autonomic", aliases: &["c9", "batch"], run: c9_batch_vs_autonomic, in_all: true, timed: true, baseline_s: 1.192 },
    Experiment { name: "c10_sensitivity", aliases: &["c10", "sensitivity"], run: c10_sensitivity, in_all: true, timed: true, baseline_s: 0.445 },
    Experiment { name: "trace", aliases: &[], run: trace_breakdown_for_all, in_all: true, timed: true, baseline_s: 0.584 },
    Experiment { name: "c11_crash_matrix", aliases: &["c11", "crashmatrix"], run: c11_crash_matrix, in_all: false, timed: false, baseline_s: 0.000 },
    Experiment { name: "c12_replication", aliases: &["c12", "replication"], run: c12_replication, in_all: false, timed: true, baseline_s: 0.054 },
    Experiment { name: "c13_dedup", aliases: &["c13", "dedup"], run: c13_dedup, in_all: false, timed: true, baseline_s: 0.124 },
    Experiment { name: "c14_shard", aliases: &["c14", "shard"], run: c14_shard, in_all: false, timed: true, baseline_s: 0.516 },
    Experiment { name: "c15_livemig", aliases: &["c15", "livemig"], run: c15_livemig, in_all: false, timed: true, baseline_s: 0.815 },
    Experiment { name: "c16_erasure", aliases: &["c16", "erasure"], run: c16_erasure, in_all: false, timed: true, baseline_s: 0.178 },
    Experiment { name: "trace_with_host_counters", aliases: &["trace"], run: trace_breakdown, in_all: false, timed: false, baseline_s: 0.000 },
];

/// The headline experiment's own wall-clock ceiling. C7a ran 33 s before
/// the software-TLB fast path and ~1 s after; 20 s is slack for slow
/// runners that still catches a translation-cache regression.
pub(crate) const HEADLINE_CEILING: (&str, f64) = ("c7a_cluster_mechanistic", 20.0);

/// Ceiling on the timed suite's summed wall-clock. `report all` fans the
/// experiments out on the worker pool, so on real CI hardware (>= 4
/// cores) the suite must finish within 4.5 s; narrow hosts fall back to a
/// serial ceiling (the baseline column sums to ~9.6 s, so 20 s is
/// slow-runner slack, same policy as the headline ceiling).
pub(crate) fn suite_ceiling_s(cores: usize) -> f64 {
    if cores >= 4 {
        4.5
    } else {
        20.0
    }
}

/// The experiment `report <which>` runs.
pub fn find(which: &str) -> Option<&'static Experiment> {
    REGISTRY.iter().find(|e| e.aliases.contains(&which))
}

/// Run every `in_all` experiment and concatenate (the `report all`
/// output).
///
/// Experiments are fully isolated (each builds its own kernels, storage
/// and trace sinks), so they run concurrently on the pool; the ordered
/// merge concatenates in table order, keeping the output byte-identical
/// to the serial run.
pub fn run_all() -> String {
    let parts: Vec<String> = ckpt_par::global().par_map_ordered(
        REGISTRY.iter().filter(|e| e.in_all).collect(),
        || (),
        |_, _, e| (e.run)(),
    );
    parts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_the_report_all_set_plus_the_standalone_experiments() {
        let names = |keep: fn(&Experiment) -> bool| -> Vec<&str> {
            REGISTRY.iter().filter(|e| keep(e)).map(|e| e.name).collect()
        };
        let all = names(|e| e.in_all);
        assert_eq!(all.len(), 15);
        assert_eq!((all[0], all[14]), ("table1", "trace"));
        // The timed suite additionally budgets the standalone experiments.
        assert_eq!(
            names(|e| e.timed)[15..],
            ["c12_replication", "c13_dedup", "c14_shard", "c15_livemig", "c16_erasure"]
        );
        assert!(names(|e| e.timed).contains(&HEADLINE_CEILING.0));
    }

    #[test]
    fn every_alias_names_one_experiment() {
        let aliases: Vec<&str> = REGISTRY.iter().flat_map(|e| e.aliases).copied().collect();
        for a in &aliases {
            assert_eq!(aliases.iter().filter(|b| *b == a).count(), 1, "alias {a} is ambiguous");
            assert!(!["list", "timings", "sweep", "all"].contains(a), "{a} is a subcommand");
        }
        assert_eq!(find("c7a").map(|e| e.name), Some("c7a_cluster_mechanistic"));
        assert_eq!(find("trace").map(|e| e.in_all), Some(false));
        assert!(find("nosuch").is_none());
    }
}
