//! Schema-stability tests for the machine-readable artifacts:
//! `BENCH_report.json`, the `SWEEP_cXX.json` sweep reports, and
//! `RUNBOOK.json`.
//!
//! CI archives these files and diffs them across runs; the diffs are
//! only meaningful if the shape is stable. These tests pin the required
//! keys and types and the canonical form (sorted keys, fixed float
//! rounding).

use ckpt_bench::artifact::{canonical_document, parse_document, Json};
use ckpt_bench::runbook::{build_runbook, ArtifactEntry};
use ckpt_bench::sweep::{run_sweep, sweep_artifact, SweepPlan};
use ckpt_bench::timing::{timings_json, ExperimentTiming};

fn probe_runs() -> Vec<ckpt_bench::sweep::SweepRun> {
    let plan = SweepPlan::new("schema.probe").seed(9).axis_ints("x", &[1, 2]);
    vec![run_sweep(&plan, |j| {
        Json::obj(vec![
            ("pi", Json::from(std::f64::consts::PI)),
            ("x2", Json::from((j.int("x") * 2) as u64)),
        ])
    })]
}

#[test]
fn bench_report_schema_is_stable() {
    let timings = vec![
        ExperimentTiming { name: "c7a_cluster_mechanistic", wall_s: 1.25, baseline_s: 1.794, output_bytes: 42 },
        ExperimentTiming { name: "trace", wall_s: 0.5, baseline_s: 0.584, output_bytes: 7 },
    ];
    let doc = timings_json(&timings);
    // Parses as JSON with sorted keys throughout (name < output_bytes <
    // wall_s; experiments < total_wall_s).
    let parsed = parse_document(&doc).expect("BENCH_report.json parses");
    assert!(parsed.keys_sorted, "BENCH_report.json keys must be sorted");
    // Required keys and types.
    let exps = parsed
        .value
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array");
    assert_eq!(exps.len(), 2);
    for e in exps {
        assert!(e.get("name").and_then(Json::as_str).is_some(), "name: string");
        assert!(e.get("output_bytes").and_then(Json::as_u64).is_some(), "output_bytes: u64");
        assert!(e.get("wall_s").and_then(Json::as_f64).is_some(), "wall_s: f64");
    }
    assert!(
        parsed.value.get("total_wall_s").and_then(Json::as_f64).is_some(),
        "total_wall_s: f64"
    );
    // Canonical like every other artifact: a parse/serialize fixed point.
    assert_eq!(canonical_document(&parsed.value), doc);
    assert!(doc.contains("\"total_wall_s\": 1.750000000"), "floats fixed at 9 decimals");
}

#[test]
fn generated_bench_report_matches_the_schema() {
    // `report timings` writes BENCH_report.json into the repo root
    // (gitignored; CI archives it as a workflow artifact). When a local
    // run has left one behind, it must stay parseable and canonically
    // keyed or the archived diffs degrade to noise. A fresh checkout has
    // no file — nothing to check; the synthetic test above pins the
    // writer's schema either way.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    let Ok(doc) = std::fs::read_to_string(path) else {
        return;
    };
    let parsed = parse_document(&doc).expect("generated BENCH_report.json parses");
    assert!(parsed.keys_sorted, "generated BENCH_report.json keys must be sorted");
    let exps = parsed
        .value
        .get("experiments")
        .and_then(Json::as_arr)
        .expect("experiments array");
    // The `report all` set plus the timed standalone experiments.
    assert_eq!(exps.len(), 20, "experiment count moved — update the schema test");
    for e in exps {
        assert!(e.get("name").and_then(Json::as_str).is_some());
        assert!(e.get("output_bytes").and_then(Json::as_u64).is_some());
        assert!(e.get("wall_s").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn sweep_report_schema_is_stable() {
    let runs = probe_runs();
    let report = &runs[0].report;
    // Required top-level keys and types.
    assert_eq!(report.get("engine").and_then(Json::as_str), Some("ckpt-sweep/1"));
    assert_eq!(report.get("n_jobs").and_then(Json::as_u64), Some(2));
    assert!(report.get("plan_hash").and_then(Json::as_str).is_some());
    let plan = report.get("plan").expect("plan echo");
    assert!(plan.get("name").and_then(Json::as_str).is_some());
    assert!(plan.get("seed").and_then(Json::as_u64).is_some());
    assert!(plan.get("axes").and_then(Json::as_obj).is_some());
    assert!(plan.get("axis_order").and_then(Json::as_arr).is_some());
    let jobs = report.get("jobs").and_then(Json::as_arr).expect("jobs array");
    assert_eq!(jobs.len(), 2);
    for j in jobs {
        assert!(j.get("config").and_then(Json::as_obj).is_some(), "config: object");
        assert!(j.get("config_hash").and_then(Json::as_str).is_some(), "config_hash: string");
        assert!(j.get("index").and_then(Json::as_u64).is_some(), "index: u64");
        assert!(j.get("metrics").and_then(Json::as_obj).is_some(), "metrics: object");
        assert!(j.get("seed").and_then(Json::as_u64).is_some(), "seed: u64");
    }
    // Canonical form: sorted keys, 9-decimal floats, parse/serialize
    // fixed point.
    let doc = canonical_document(&sweep_artifact(&runs));
    let parsed = parse_document(&doc).expect("artifact parses");
    assert!(parsed.keys_sorted);
    assert_eq!(canonical_document(&parsed.value), doc);
    assert!(doc.contains("\"pi\": 3.141592654"), "floats fixed at 9 decimals");
}

#[test]
fn runbook_schema_is_stable() {
    let runs = probe_runs();
    let rb = build_runbook(&[ArtifactEntry {
        experiment: "probe",
        file: "SWEEP_probe.json".into(),
        runs: &runs,
    }]);
    assert_eq!(rb.get("engine").and_then(Json::as_str), Some("ckpt-sweep/1"));
    assert_eq!(rb.get("total_jobs").and_then(Json::as_u64), Some(2));
    let arts = rb.get("artifacts").and_then(Json::as_arr).expect("artifacts array");
    assert_eq!(arts.len(), 1);
    for a in arts {
        assert!(a.get("content_hash").and_then(Json::as_str).is_some());
        assert_eq!(a.get("experiment").and_then(Json::as_str), Some("probe"));
        assert_eq!(a.get("file").and_then(Json::as_str), Some("SWEEP_probe.json"));
        let plans = a.get("plans").and_then(Json::as_arr).expect("plans array");
        for p in plans {
            assert!(p.get("jobs").and_then(Json::as_u64).is_some());
            assert!(p.get("name").and_then(Json::as_str).is_some());
            assert!(p.get("plan_hash").and_then(Json::as_str).is_some());
            let seeds = p.get("seeds").and_then(Json::as_arr).expect("seeds array");
            assert_eq!(seeds.len(), 2, "one seed per job");
        }
    }
    // The RunBook is itself canonical.
    let doc = canonical_document(&rb);
    let parsed = parse_document(&doc).expect("runbook parses");
    assert!(parsed.keys_sorted);
    assert_eq!(canonical_document(&parsed.value), doc);
}

#[test]
fn committed_goldens_are_canonical() {
    for (name, text) in [
        ("SWEEP_c12.json", include_str!("../goldens/SWEEP_c12.json")),
        ("SWEEP_c14.json", include_str!("../goldens/SWEEP_c14.json")),
        ("SWEEP_c16.json", include_str!("../goldens/SWEEP_c16.json")),
    ] {
        let parsed = parse_document(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(parsed.keys_sorted, "{name}: keys must be sorted");
        assert_eq!(
            canonical_document(&parsed.value),
            text,
            "{name}: golden is not in canonical form"
        );
    }
}
