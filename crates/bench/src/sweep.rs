//! The deterministic sweep engine: declarative plans expanded into seeded
//! jobs, fanned out on `ckpt-par`, rolled up into canonical JSON
//! artifacts.
//!
//! A [`SweepPlan`] is a named grid over typed axes (mechanism, backend,
//! geometry, node count, …) plus an optional cell filter for
//! non-rectangular grids (e.g. `lost <= n`). [`SweepPlan::expand`]
//! enumerates the grid row-major in axis-declaration order; every job gets
//! a seed derived from the plan name, the plan's base seed, and the job's
//! *sorted* canonical config — so seeds are stable under axis reordering
//! and independent of expansion position.
//!
//! [`run_sweep`] fans the jobs out on the global `ckpt-par` pool (ordered
//! merge, so results land in expansion order at any width) and rolls the
//! per-job metrics into a [`SweepRun`]: the canonical `SweepReport` JSON
//! document plus the in-order job list the text renderers consume. The
//! report's `jobs` array is sorted by canonical config, which makes the
//! artifact bytes invariant under *any* job submission order, not just the
//! pool's — the property tests shuffle submissions to prove it.
//!
//! Wall-clock is measured per cell but kept strictly out of the canonical
//! document (it would break byte-identity); it rides in
//! [`SweepRun::cell_walls`] for the CI per-cell perf printout.

use crate::artifact::{canonical_document, fnv1a64, fnv1a64_hex, Json};
use std::collections::BTreeMap;
use std::time::Instant;

/// Version tag embedded in every artifact so a schema change is visible
/// in the artifact itself, not just in the code that wrote it.
pub(crate) const ENGINE: &str = "ckpt-sweep/1";

/// One coordinate on one axis. Integers and strings cover every axis the
/// experiments sweep (counts, geometries, mechanism/backend/app labels).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum AxisValue {
    Int(i64),
    Str(String),
}

impl AxisValue {
    fn to_json(&self) -> Json {
        match self {
            AxisValue::Int(v) => Json::from(*v),
            AxisValue::Str(s) => Json::Str(s.clone()),
        }
    }

    /// Compact label for timing tables and diff messages.
    pub(crate) fn label(&self) -> String {
        match self {
            AxisValue::Int(v) => v.to_string(),
            AxisValue::Str(s) => s.clone(),
        }
    }
}

/// A named axis and its swept values, in sweep order.
#[derive(Debug, Clone)]
pub(crate) struct Axis {
    pub(crate) name: String,
    pub(crate) values: Vec<AxisValue>,
}

/// One job's coordinates: axis name → value, sorted by axis name (a
/// `BTreeMap`, so the canonical form is independent of axis declaration
/// order).
pub(crate) type Config = BTreeMap<String, AxisValue>;

type Filter = dyn Fn(&Config) -> bool + Sync;

/// A declarative sweep: name, seed, typed axes, optional cell filter.
pub struct SweepPlan {
    name: String,
    seed: u64,
    axes: Vec<Axis>,
    filter: Option<Box<Filter>>,
}

impl SweepPlan {
    pub fn new(name: impl Into<String>) -> Self {
        SweepPlan {
            name: name.into(),
            seed: 0,
            axes: Vec::new(),
            filter: None,
        }
    }

    /// Base seed mixed into every job seed (same plan + same seed ⇒ the
    /// same jobs, bit for bit).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    #[must_use]
    pub fn axis_ints(mut self, name: &str, values: &[i64]) -> Self {
        self.axes.push(Axis {
            name: name.into(),
            values: values.iter().map(|&v| AxisValue::Int(v)).collect(),
        });
        self
    }

    #[must_use]
    pub fn axis_strs(mut self, name: &str, values: &[&str]) -> Self {
        self.axes.push(Axis {
            name: name.into(),
            values: values
                .iter()
                .map(|&v| AxisValue::Str(v.to_string()))
                .collect(),
        });
        self
    }

    /// Keep only cells the predicate accepts (non-rectangular grids such
    /// as `lost <= n`). The filter sees the sorted config.
    #[must_use]
    pub(crate) fn filter(mut self, f: impl Fn(&Config) -> bool + Sync + 'static) -> Self {
        self.filter = Some(Box::new(f));
        self
    }

    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Full grid cardinality before filtering.
    pub fn unfiltered_cardinality(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// Expand the grid row-major in axis-declaration order (first axis
    /// slowest), filtered. Every job's seed depends only on (plan name,
    /// plan seed, sorted config) — never on expansion position or axis
    /// order.
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        let total = self.unfiltered_cardinality();
        if self.axes.is_empty() || total == 0 {
            return jobs;
        }
        for cell in 0..total {
            let mut rem = cell;
            let mut config = Config::new();
            // Row-major: the last-declared axis spins fastest.
            for axis in self.axes.iter().rev() {
                let idx = rem % axis.values.len();
                rem /= axis.values.len();
                config.insert(axis.name.clone(), axis.values[idx].clone());
            }
            if let Some(f) = &self.filter {
                if !f(&config) {
                    continue;
                }
            }
            let seed = job_seed(&self.name, self.seed, &config);
            jobs.push(JobSpec {
                plan: self.name.clone(),
                index: jobs.len(),
                seed,
                config,
            });
        }
        jobs
    }

    /// The plan echoed as canonical JSON: axes (sorted by name), the
    /// declared sweep order, and the base seed.
    pub(crate) fn plan_json(&self) -> Json {
        Json::obj(vec![
            (
                "axes",
                Json::Obj(
                    self.axes
                        .iter()
                        .map(|a| {
                            (
                                a.name.clone(),
                                Json::Arr(a.values.iter().map(|v| v.to_json()).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "axis_order",
                Json::Arr(
                    self.axes
                        .iter()
                        .map(|a| Json::Str(a.name.clone()))
                        .collect(),
                ),
            ),
            ("name", Json::Str(self.name.clone())),
            ("seed", Json::from(self.seed)),
        ])
    }

    /// Hash of the canonical plan document.
    pub(crate) fn plan_hash(&self) -> String {
        fnv1a64_hex(canonical_document(&self.plan_json()).as_bytes())
    }
}

fn config_json(config: &Config) -> Json {
    Json::Obj(
        config
            .iter()
            .map(|(k, v)| (k.clone(), v.to_json()))
            .collect(),
    )
}

fn job_seed(plan: &str, base_seed: u64, config: &Config) -> u64 {
    let mut material = format!("{plan}\u{0}{base_seed}\u{0}");
    material.push_str(&canonical_document(&config_json(config)));
    fnv1a64(material.as_bytes())
}

/// One expanded, seeded job.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub(crate) plan: String,
    /// Position in the plan's expansion order (what the text renderers
    /// iterate in).
    pub index: usize,
    pub seed: u64,
    pub(crate) config: Config,
}

impl JobSpec {
    pub fn config_json(&self) -> Json {
        config_json(&self.config)
    }

    pub(crate) fn config_hash(&self) -> String {
        fnv1a64_hex(canonical_document(&self.config_json()).as_bytes())
    }

    /// Integer axis accessor; panics on a missing axis — a sweep job
    /// asking for an axis its plan doesn't declare is a bug, not an error.
    pub fn int(&self, axis: &str) -> i64 {
        match self.config.get(axis) {
            Some(AxisValue::Int(v)) => *v,
            other => panic!("job in plan '{}': int axis '{axis}' is {other:?}", self.plan),
        }
    }

    pub fn str(&self, axis: &str) -> &str {
        match self.config.get(axis) {
            Some(AxisValue::Str(s)) => s,
            other => panic!("job in plan '{}': str axis '{axis}' is {other:?}", self.plan),
        }
    }

    /// `axis=value,axis=value` in sorted-axis order — the cell label the
    /// perf printout attributes wall-clock to.
    pub(crate) fn label(&self) -> String {
        self.config
            .iter()
            .map(|(k, v)| format!("{k}={}", v.label()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// One finished job: its spec and the metrics object its closure
/// returned.
#[derive(Debug, Clone)]
pub struct JobResult {
    pub(crate) spec: JobSpec,
    pub(crate) metrics: Json,
}

/// A finished sweep: the canonical report document plus everything the
/// renderers and the perf printout need.
pub struct SweepRun {
    pub plan_name: String,
    pub plan_hash: String,
    /// The canonical `SweepReport` document for this plan.
    pub report: Json,
    /// Jobs in expansion order (render order).
    pub jobs: Vec<JobResult>,
    /// Per-cell wall-clock, expansion order — deliberately *not* part of
    /// [`SweepRun::report`] (wall-clock is not deterministic).
    pub cell_walls: Vec<(String, f64)>,
}

impl SweepRun {
    /// Canonical artifact bytes for this plan's report.
    pub fn canonical(&self) -> String {
        canonical_document(&self.report)
    }
}

/// Run every job of `plan` on the global `ckpt-par` pool.
pub fn run_sweep(plan: &SweepPlan, job: impl Fn(&JobSpec) -> Json + Sync) -> SweepRun {
    run_jobs(plan, plan.expand(), job)
}

/// Run an explicit job list (the property tests pass shuffled
/// permutations). The rollup sorts by canonical config, so the report
/// bytes are identical for any permutation of the same jobs.
pub fn run_jobs(
    plan: &SweepPlan,
    specs: Vec<JobSpec>,
    job: impl Fn(&JobSpec) -> Json + Sync,
) -> SweepRun {
    let results: Vec<(JobSpec, Json, f64)> = ckpt_par::global().par_map_ordered(
        specs,
        || (),
        |_, _, spec| {
            let t0 = Instant::now();
            let metrics = job(&spec);
            let wall = t0.elapsed().as_secs_f64();
            (spec, metrics, wall)
        },
    );
    let mut jobs: Vec<JobResult> = results
        .iter()
        .map(|(spec, metrics, _)| JobResult {
            spec: spec.clone(),
            metrics: metrics.clone(),
        })
        .collect();
    jobs.sort_by_key(|j| j.spec.index);
    let cell_walls: Vec<(String, f64)> = {
        let mut walls: Vec<(usize, String, f64)> = results
            .iter()
            .map(|(spec, _, wall)| (spec.index, spec.label(), *wall))
            .collect();
        walls.sort_by_key(|(i, _, _)| *i);
        walls.into_iter().map(|(_, l, w)| (l, w)).collect()
    };

    // The artifact's jobs array sorts by canonical config — stable under
    // any submission order.
    let mut artifact_jobs: Vec<&JobResult> = jobs.iter().collect();
    artifact_jobs.sort_by_key(|j| canonical_document(&j.spec.config_json()));
    let report = Json::obj(vec![
        ("engine", Json::from(ENGINE)),
        (
            "jobs",
            Json::Arr(
                artifact_jobs
                    .iter()
                    .map(|j| {
                        Json::obj(vec![
                            ("config", j.spec.config_json()),
                            ("config_hash", Json::Str(j.spec.config_hash())),
                            ("index", Json::from(j.spec.index)),
                            ("metrics", j.metrics.clone()),
                            ("seed", Json::from(j.spec.seed)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("n_jobs", Json::from(jobs.len())),
        ("plan", plan.plan_json()),
        ("plan_hash", Json::Str(plan.plan_hash())),
    ]);
    SweepRun {
        plan_name: plan.name().to_string(),
        plan_hash: plan.plan_hash(),
        report,
        jobs,
        cell_walls,
    }
}

/// Combine one experiment's sweep runs into its artifact document:
/// an object keyed by plan name (`SWEEP_c16.json` holds every C16 plan).
pub fn sweep_artifact(runs: &[SweepRun]) -> Json {
    Json::Obj(
        runs.iter()
            .map(|r| (r.plan_name.clone(), r.report.clone()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> SweepPlan {
        SweepPlan::new("t")
            .seed(7)
            .axis_ints("n", &[3, 5])
            .axis_ints("lost", &[0, 1, 2, 3, 4, 5])
            .filter(|c| match (c.get("n"), c.get("lost")) {
                (Some(AxisValue::Int(n)), Some(AxisValue::Int(l))) => l <= n,
                _ => false,
            })
    }

    #[test]
    fn expansion_is_row_major_and_filtered() {
        let jobs = plan().expand();
        // n=3 keeps lost 0..=3, n=5 keeps lost 0..=5.
        assert_eq!(jobs.len(), 4 + 6);
        assert_eq!(jobs[0].int("n"), 3);
        assert_eq!(jobs[0].int("lost"), 0);
        assert_eq!(jobs[3].int("lost"), 3);
        assert_eq!(jobs[4].int("n"), 5);
        assert_eq!(jobs.last().unwrap().int("lost"), 5);
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn seeds_depend_on_config_not_position() {
        let a = plan().expand();
        // Same axes declared in the opposite order: different expansion
        // order, same (config → seed) mapping.
        let b = SweepPlan::new("t")
            .seed(7)
            .axis_ints("lost", &[0, 1, 2, 3, 4, 5])
            .axis_ints("n", &[3, 5])
            .filter(|c| match (c.get("n"), c.get("lost")) {
                (Some(AxisValue::Int(n)), Some(AxisValue::Int(l))) => l <= n,
                _ => false,
            })
            .expand();
        let key = |j: &JobSpec| canonical_document(&j.config_json());
        let mut am: Vec<(String, u64)> = a.iter().map(|j| (key(j), j.seed)).collect();
        let mut bm: Vec<(String, u64)> = b.iter().map(|j| (key(j), j.seed)).collect();
        am.sort();
        bm.sort();
        assert_eq!(am, bm);
        // And a different base seed moves every job seed.
        let c = plan().seed(8).expand();
        assert!(a.iter().zip(&c).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn report_bytes_invariant_under_submission_order() {
        let p = plan();
        let job = |s: &JobSpec| {
            Json::obj(vec![
                ("sum", Json::from((s.int("n") + s.int("lost")) as u64)),
                ("seed_echo", Json::from(s.seed)),
            ])
        };
        let fwd = run_jobs(&p, p.expand(), job).canonical();
        let mut rev_specs = p.expand();
        rev_specs.reverse();
        let rev = run_jobs(&p, rev_specs, job).canonical();
        assert_eq!(fwd, rev);
    }
}
