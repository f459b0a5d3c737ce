//! The metric registry and the report a run prints.
//!
//! Three tables. [`E2E`] is the contract set in `BENCHMARK.json`: every
//! workload reports every one of them, so each is defined per workload by
//! role (see `README.md`). [`EXTRA`] holds the end-to-end numbers that only
//! some workloads have (checkpoint and restart throughput, p90, byte
//! ratios, simulated cost); the untraced run prints them and `--compare`
//! judges them, but the contract cannot list them. [`LAYER`] is the traced
//! run's per-layer set, also in `BENCHMARK.json`.
//!
//! Two clocks, never conflated: a unit of `virt_ms` is simulated time (it
//! must repeat exactly for one seed and op list); every other time is host
//! time of this sandbox.

use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One metric: name, unit, direction, and (end-to-end only) the share of
/// the baseline median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn hi(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound,
    }
}

/// The contract's end-to-end metrics. Ten runs of one commit spread by 3
/// to 9% of the median on the 2-core sandbox and sets taken minutes apart
/// drift by up to 15%, so every host-dependent metric takes the widest
/// bound the contract allows.
pub const E2E: &[Def] = &[
    lo("setup_s", "s", 0.25),
    hi("work_per_s", "1/s", 0.25),
    lo("op_ms_p50", "ms", 0.25),
    lo("cpu_ms_per_work", "ms", 0.25),
    lo("peak_rss_mib", "MiB", 0.25),
    hi("ok_ops_share", "share", 0.001),
];

/// Workload-specific end-to-end metrics (absent where a workload has no
/// such operation). Bounds are the issue's; exact ones are 0.
pub const EXTRA: &[Def] = &[
    hi("ckpt_mib_per_s", "MiB/s", 0.10),
    hi("restart_mib_per_s", "MiB/s", 0.10),
    lo("ckpt_ms_p90", "ms", 0.10),
    lo("restart_ms_p50", "ms", 0.10),
    lo("commit_bytes_per_guest_byte", "B/B", 0.0),
    lo("stored_bytes_per_guest_byte", "B/B", 0.0),
    lo("virt_ckpt_ms", "virt_ms", 0.0),
    lo("virt_restart_ms", "virt_ms", 0.0),
    lo("virt_job_ms", "virt_ms", 0.0),
];

const fn layer_hi(name: &'static str, unit: &'static str) -> Def {
    hi(name, unit, 0.0)
}

const fn layer_lo(name: &'static str, unit: &'static str) -> Def {
    lo(name, unit, 0.0)
}

/// Per-layer metrics of the traced run. Every `_s` is self time in seconds
/// per cycle (a cycle is the workload's fixed op list); counts are per
/// cycle too, so neither depends on how long the run lasted. A layer that
/// is not on a workload's path reads 0.
pub const LAYER: &[Def] = &[
    // simos: the guest step loop, soft TLB and scheduler.
    layer_lo("simos.run_s", "s"),
    layer_hi("simos.guest_steps_per_s", "1/s"),
    layer_hi("simos.tlb_hit_share", "share"),
    layer_lo("simos.tlb_flushes", "count"),
    layer_lo("simos.page_faults", "count"),
    layer_lo("simos.context_switches", "count"),
    // ckpt-core: tracker, capture, restore, the crash matrix driver.
    layer_lo("core.collect_s", "s"),
    layer_lo("core.collect_pages", "count"),
    layer_lo("core.capture_s", "s"),
    layer_hi("core.capture_mib_per_s", "MiB/s"),
    layer_lo("core.rearm_s", "s"),
    layer_lo("core.restore_s", "s"),
    layer_hi("core.restore_mib_per_s", "MiB/s"),
    layer_lo("core.engine_residual_s", "s"),
    layer_lo("core.crash_cell_ms_p50", "ms"),
    layer_lo("core.crash_sites_recorded", "count"),
    layer_lo("core.crash_cells", "count"),
    // ckpt-image: page compression, encode + CRC, decode, chain overlay.
    layer_hi("image.compress_mib_per_s", "MiB/s"),
    layer_lo("image.encode_s", "s"),
    layer_hi("image.encode_mib_per_s", "MiB/s"),
    layer_hi("image.crc_mib_per_s", "MiB/s"),
    layer_lo("image.decode_s", "s"),
    layer_hi("image.decode_mib_per_s", "MiB/s"),
    layer_lo("image.reconstruct_s", "s"),
    layer_lo("image.chain_len_mean", "count"),
    layer_hi("image.compress_ratio", "ratio"),
    layer_hi("image.zero_page_share", "share"),
    // ckpt-par: the encode pool.
    layer_lo("par.tasks", "count"),
    layer_lo("par.steals", "count"),
    layer_lo("par.merge_stalls", "count"),
    layer_lo("par.steal_share", "share"),
    layer_hi("par.encode_speedup", "ratio"),
    // The engine's storage seam, whatever stack is behind it.
    layer_lo("storage.store_s", "s"),
    layer_lo("storage.load_s", "s"),
    layer_lo("storage.prune_s", "s"),
    layer_lo("storage.store_ops", "count"),
    layer_lo("storage.load_ops", "count"),
    layer_lo("storage.delete_ops", "count"),
    layer_lo("storage.list_ops", "count"),
    layer_lo("storage.used_bytes_end", "B"),
    layer_lo("storage.commit_bytes_per_guest_byte", "B/B"),
    layer_lo("storage.stored_bytes_per_guest_byte", "B/B"),
    // ckpt-cas: chunking, digests, delta, refcounted GC.
    layer_lo("cas.store_self_s", "s"),
    layer_lo("cas.load_self_s", "s"),
    layer_hi("cas.chunk_mib_per_s", "MiB/s"),
    layer_hi("cas.delta_mib_per_s", "MiB/s"),
    layer_hi("cas.dedup_ratio", "ratio"),
    layer_hi("cas.dup_chunk_share", "share"),
    layer_lo("cas.novel_chunks", "count"),
    layer_hi("cas.delta_objects", "count"),
    layer_lo("cas.gc_chunks", "count"),
    // ckpt-replica: quorum commits and the node substrate.
    layer_lo("replica.store_self_s", "s"),
    layer_hi("replica.store_mib_per_s", "MiB/s"),
    layer_lo("replica.load_self_s", "s"),
    layer_hi("replica.load_mib_per_s", "MiB/s"),
    layer_hi("replica.node_put_mib_per_s", "MiB/s"),
    layer_hi("replica.fnv_mib_per_s", "MiB/s"),
    layer_lo("replica.commits", "count"),
    layer_lo("replica.ack_cycles", "count"),
    layer_lo("replica.retries", "count"),
    layer_lo("replica.repairs", "count"),
    layer_lo("replica.quorum_losses", "count"),
    layer_lo("replica.bytes_ingested", "B"),
    layer_lo("replica.digests_computed", "count"),
    layer_hi("replica.batch_objects_per_ack", "ratio"),
    // ckpt-ec: Reed-Solomon commits and degraded reads.
    layer_lo("ec.store_self_s", "s"),
    layer_hi("ec.store_mib_per_s", "MiB/s"),
    layer_lo("ec.load_self_s", "s"),
    layer_hi("ec.load_mib_per_s", "MiB/s"),
    layer_hi("ec.rs_encode_mib_per_s", "MiB/s"),
    layer_hi("ec.rs_reconstruct_mib_per_s", "MiB/s"),
    layer_hi("ec.gf_mul_acc_mib_per_s", "MiB/s"),
    layer_lo("ec.plumbing_share", "share"),
    layer_lo("ec.commits", "count"),
    layer_lo("ec.decodes", "count"),
    layer_lo("ec.repairs", "count"),
    layer_lo("ec.shard_losses", "count"),
    layer_lo("ec.quorum_losses", "count"),
    layer_lo("ec.ack_cycles", "count"),
    // ckpt-cluster: the fault-tolerant job loop.
    layer_lo("cluster.superstep_s", "s"),
    layer_lo("cluster.ckpt_round_s", "s"),
    layer_lo("cluster.restart_s", "s"),
    layer_lo("cluster.rounds", "count"),
    layer_lo("cluster.failures", "count"),
    layer_lo("cluster.recoveries", "count"),
    layer_lo("cluster.supersteps_reexecuted", "count"),
    layer_lo("cluster.round_bytes", "B"),
    layer_lo("cluster.ack_cycles", "count"),
    // The untraced engine, run beside the traced pipeline on the same ops.
    layer_hi("engine.ckpt_mib_per_s", "MiB/s"),
    layer_hi("engine.restart_mib_per_s", "MiB/s"),
    layer_lo("engine.ckpt_ms_p50", "ms"),
    layer_lo("engine.restart_ms_p50", "ms"),
    // Simulated cost (deterministic): a host-speed change must not move it.
    layer_lo("virt.ckpt_ms", "virt_ms"),
    layer_lo("virt.restart_ms", "virt_ms"),
    layer_lo("virt.job_ms", "virt_ms"),
    // What tracing itself cost and what it failed to attribute.
    layer_lo("trace.overhead_share", "share"),
    layer_lo("trace.unattributed_share", "share"),
];

/// Prefix of the ungated per-run diagnostics (`noise.<metric>_iqr_share`,
/// `count.<what>`).
const FREE_PREFIXES: [&str; 2] = ["noise.", "count."];

pub fn lookup(name: &str) -> Option<&'static Def> {
    E2E.iter()
        .chain(EXTRA)
        .chain(LAYER)
        .find(|d| d.name == name)
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub workers: usize,
    /// Whole cycles of the workload's op list that were measured.
    pub cycles: u64,
    /// Operations attempted and failed (refused, errored or mis-verified).
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the reader; empty on a clean run.
    pub failures: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, workers: usize) -> Self {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            workers,
            ..Report::default()
        }
    }

    /// Record a metric. Panics on a name outside the registry, so a typo
    /// cannot print a metric nobody declared.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            lookup(name).is_some() || FREE_PREFIXES.iter().any(|p| name.starts_with(p)),
            "metric {name} is not in the registry"
        );
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics the contract wants from this run: every end-to-end one
    /// untraced, every per-layer one traced.
    fn contract_set(&self) -> Result<Vec<(&'static Def, f64)>, String> {
        if self.trace {
            return Ok(LAYER
                .iter()
                .map(|d| (d, self.get(d.name).unwrap_or(0.0)))
                .collect());
        }
        E2E.iter()
            .map(|d| {
                self.get(d.name)
                    .map(|v| (d, v))
                    .ok_or_else(|| format!("{}: {} was not measured", self.workload, d.name))
            })
            .collect()
    }

    /// The one JSON object the driver reads from the last line of stdout.
    pub fn contract_line(&self) -> Result<String, String> {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (d, v)) in self.contract_set()?.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("{}: {} is not finite", self.workload, d.name));
            }
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .expect("write to string");
        }
        s.push_str("}}");
        Ok(s)
    }

    /// Everything the run measured, as one JSON object on one line (the
    /// suite collects these into `--out`).
    pub fn full_line(&self) -> String {
        let mut s = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"workers\": {}, \"cycles\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.workers,
            self.cycles,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, v)) in self.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            write!(s, "{sep}\"{name}\": {v}").expect("write to string");
        }
        s.push_str("}}");
        s
    }

    /// Every metric by name with its unit, for a human.
    pub fn table(&self) -> String {
        let mut s = String::new();
        let mode = if self.trace { "traced" } else { "untraced" };
        writeln!(
            s,
            "== {} ({mode}; seed {}; {} cycles; pool width {}; host cores {})",
            self.workload,
            self.seed,
            self.cycles,
            self.workers,
            std::thread::available_parallelism().map_or(0, |n| n.get())
        )
        .expect("write to string");
        for (name, v) in &self.values {
            let unit = lookup(name).map_or("", |d| d.unit);
            writeln!(s, "  {name:<40} {v:>16.6} {unit}").expect("write to string");
        }
        writeln!(
            s,
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        )
        .expect("write to string");
        for f in &self.failures {
            writeln!(s, "  FAILED: {f}").expect("write to string");
        }
        s
    }
}

/// Said once per run, above the numbers.
pub const CAVEAT: &str = "media are simulated: no real disk or network is measured. Units of \
virt_ms are simulated time; every other time is host time of this sandbox.";

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_bench::artifact::{parse_document, Json};

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_names_and_units_fit_the_contract() {
        assert!((1..=16).contains(&E2E.len()));
        assert!((1..=128).contains(&LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in E2E.iter().chain(EXTRA).chain(LAYER) {
            assert!(name_ok(d.name), "bad name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} on {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
        }
        for d in E2E {
            assert!((0.0..=0.25).contains(&d.bound), "{} bound", d.name);
        }
        let setup = E2E
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(!name_ok(".x") && !name_ok("a b") && !unit_ok("MiB per s"));
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.as_obj().unwrap()[key]
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let o = m.as_obj().unwrap();
                (
                    o["name"].as_str().unwrap().to_string(),
                    o["unit"].as_str().unwrap().to_string(),
                    o["better"].as_str().unwrap().to_string(),
                    o.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse_document(&text).expect("valid JSON").value;
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let want = |defs: &[Def], bounded: bool| -> Vec<(String, String, String, Option<f64>)> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        match d.better {
                            Better::Higher => "higher",
                            Better::Lower => "lower",
                        }
                        .to_string(),
                        bounded.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), want(E2E, true));
        assert_eq!(listed(&doc, "per_layer"), want(LAYER, false));
        let workloads: Vec<&str> = doc.as_obj().unwrap()["workloads"]
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.as_obj().unwrap()["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for w in doc.as_obj().unwrap()["workloads"].as_arr().unwrap() {
            let why = w.as_obj().unwrap()["why"].as_str().unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
        assert_eq!(doc.as_obj().unwrap()["paths"].as_arr().unwrap().len(), 1);
    }

    #[test]
    fn contract_line_has_every_metric_of_its_mode() {
        let mut r = Report {
            workload: "w".into(),
            attempted: 3,
            ..Report::default()
        };
        assert!(
            r.contract_line().is_err(),
            "an unmeasured end-to-end metric is an error"
        );
        for d in E2E {
            r.set(d.name, 1.5);
        }
        r.set("noise.work_per_s_iqr_share", 0.01);
        let doc = parse_document(&r.contract_line().unwrap()).unwrap().value;
        let o = doc.as_obj().unwrap();
        assert_eq!(
            o.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(o["metrics"].as_obj().unwrap().len(), E2E.len());
        assert_eq!(o["correct"].as_bool(), Some(true));

        r.trace = true;
        r.fail("restart differed".into());
        let doc = parse_document(&r.contract_line().unwrap()).unwrap().value;
        let o = doc.as_obj().unwrap();
        assert_eq!(o["metrics"].as_obj().unwrap().len(), LAYER.len());
        assert_eq!(o["correct"].as_bool(), Some(false));
        assert!(parse_document(&r.full_line()).is_ok());
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn an_undeclared_metric_cannot_be_set() {
        Report::default().set("core.colect_s", 1.0);
    }
}
