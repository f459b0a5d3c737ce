//! Property tests for the sweep engine itself — the hard pins the
//! structural goldens stand on.
//!
//! The engine's contract: same plan + same seed ⇒ byte-identical
//! canonical artifacts at any pool width and under any job submission
//! order; expansion is exhaustive and duplicate-free; per-job seeds
//! depend only on (plan name, base seed, sorted config), never on axis
//! declaration order or expansion position.

use ckpt_bench::artifact::{canonical_document, parse_document, Json};
use ckpt_bench::sweep::{run_jobs, JobSpec, SweepPlan};
use std::process::Command;

fn probe_plan() -> SweepPlan {
    SweepPlan::new("prop")
        .seed(41)
        .axis_ints("a", &[1, 2, 3])
        .axis_strs("b", &["x", "y"])
        .axis_ints("c", &[10, 20])
}

fn probe_job(s: &JobSpec) -> Json {
    Json::obj(vec![
        ("a2", Json::from((s.int("a") * 2) as u64)),
        ("b_echo", Json::from(s.str("b"))),
        ("seed_echo", Json::from(s.seed)),
    ])
}

#[test]
fn expansion_is_exhaustive_and_duplicate_free() {
    let plan = probe_plan();
    let jobs = plan.expand();
    // Cardinality = product of axis lengths (3 × 2 × 2).
    assert_eq!(plan.unfiltered_cardinality(), 12);
    assert_eq!(jobs.len(), 12);
    // Duplicate-free: every sorted config is unique.
    let mut configs: Vec<String> = jobs
        .iter()
        .map(|j| canonical_document(&j.config_json()))
        .collect();
    configs.sort();
    configs.dedup();
    assert_eq!(configs.len(), 12, "expansion produced duplicate cells");
    // Exhaustive: every combination appears.
    for a in [1i64, 2, 3] {
        for b in ["x", "y"] {
            for c in [10i64, 20] {
                assert!(
                    jobs.iter()
                        .any(|j| j.int("a") == a && j.str("b") == b && j.int("c") == c),
                    "cell (a={a}, b={b}, c={c}) missing from expansion"
                );
            }
        }
    }
}

#[test]
fn seeds_are_stable_under_axis_reordering() {
    let forward = probe_plan().expand();
    let reordered = SweepPlan::new("prop")
        .seed(41)
        .axis_ints("c", &[10, 20])
        .axis_strs("b", &["x", "y"])
        .axis_ints("a", &[1, 2, 3])
        .expand();
    let key = |j: &JobSpec| canonical_document(&j.config_json());
    let mut fwd: Vec<(String, u64)> = forward.iter().map(|j| (key(j), j.seed)).collect();
    let mut rev: Vec<(String, u64)> = reordered.iter().map(|j| (key(j), j.seed)).collect();
    fwd.sort();
    rev.sort();
    assert_eq!(fwd, rev, "axis declaration order leaked into job seeds");
    // A different base seed moves every job's seed.
    let moved = probe_plan().seed(42).expand();
    assert!(
        forward.iter().zip(&moved).all(|(x, y)| x.seed != y.seed),
        "base seed is not mixed into every job seed"
    );
}

#[test]
fn report_bytes_identical_under_shuffled_submission_order() {
    let plan = probe_plan();
    let baseline = run_jobs(&plan, plan.expand(), probe_job).canonical();
    // Several deterministic permutations: reversed, interleaved, and a
    // seeded Fisher-Yates shuffle.
    let mut reversed = plan.expand();
    reversed.reverse();
    let mut interleaved = Vec::new();
    let specs = plan.expand();
    let (evens, odds): (Vec<_>, Vec<_>) = specs.into_iter().partition(|j| j.index % 2 == 0);
    interleaved.extend(odds);
    interleaved.extend(evens);
    let mut shuffled = plan.expand();
    let mut state = 0x9e3779b97f4a7c15u64;
    for i in (1..shuffled.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    for (label, specs) in [
        ("reversed", reversed),
        ("interleaved", interleaved),
        ("shuffled", shuffled),
    ] {
        let got = run_jobs(&plan, specs, probe_job).canonical();
        assert_eq!(got, baseline, "{label} submission order changed the report bytes");
    }
}

#[test]
fn artifacts_are_canonical_fixed_points() {
    // parse(artifact) rendered canonically must reproduce the exact
    // bytes — the property that makes structural diffs equivalent to
    // byte diffs.
    let plan = probe_plan();
    let doc = run_jobs(&plan, plan.expand(), probe_job).canonical();
    let parsed = parse_document(&doc).expect("artifact parses");
    assert!(parsed.keys_sorted, "artifact keys must be sorted");
    assert_eq!(
        canonical_document(&parsed.value),
        doc,
        "canonical document is not a parse/serialize fixed point"
    );
}

#[test]
fn sweep_artifacts_byte_identical_at_pool_widths_1_4_8() {
    // The real experiment artifacts, not a probe plan: `report sweep`
    // runs in its own process per width because the global pool latches
    // its size once.
    let files = ["SWEEP_c12.json", "SWEEP_c14.json", "SWEEP_c16.json", "RUNBOOK.json"];
    let mut per_width: Vec<Vec<Vec<u8>>> = Vec::new();
    for width in ["1", "4", "8"] {
        let dir = std::env::temp_dir().join(format!(
            "ckpt-sweep-width-{width}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("create artifact dir");
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .env("CKPT_PAR_WORKERS", width)
            .args(["sweep", "--out"])
            .arg(&dir)
            .output()
            .expect("run report sweep");
        assert!(out.status.success(), "report sweep failed at width {width}");
        per_width.push(
            files
                .iter()
                .map(|f| std::fs::read(dir.join(f)).expect("read artifact"))
                .collect(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    for (i, f) in files.iter().enumerate() {
        assert_eq!(per_width[0][i], per_width[1][i], "{f}: width 1 vs 4 bytes differ");
        assert_eq!(per_width[1][i], per_width[2][i], "{f}: width 4 vs 8 bytes differ");
    }
    // What the binary writes is what is committed: `golden_c12/14/16` hold
    // the library's documents to these files and name the first divergent
    // path; this holds `report sweep --out` to them too.
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens");
    for (i, f) in files.iter().enumerate().filter(|(_, f)| f.starts_with("SWEEP_")) {
        let golden = std::fs::read(format!("{committed}/{f}")).expect("read committed golden");
        assert!(
            per_width[0][i] == golden,
            "{f}: `report sweep --out` differs from crates/bench/goldens/{f}"
        );
    }
}
