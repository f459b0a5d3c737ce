//! Everything `run.sh` does beyond one contract run: the whole suite with
//! each workload in a process of its own, the repeat check, and the
//! comparison of two result files.

use crate::measure::Opts;
use crate::metrics::{lookup, Better, E2E, EXTRA};
use crate::WORKLOADS;
use ckpt_bench::artifact::{parse_document, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// Cycles the suite measures per workload when no `--seconds` is given:
/// the op lists of the issue (200 / 160 / 120 checkpoint rounds, 600
/// supersteps, one pass of 903 cells), 13 to 20 s each on two cores. A
/// fixed op list makes the deterministic metrics repeat exactly.
fn suite_cycles(workload: &str) -> u64 {
    match workload {
        "full_raw" => 50,
        "incr_dedup_repl" => 4,
        "full_rs_degraded" => 60,
        "cluster_run" => 15,
        _ => 1,
    }
}

/// One child's full result line, parsed.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// The JSON object as the child printed it.
    pub raw: String,
}

fn parse_run(line: &str) -> Result<RunResult, String> {
    run_from(&parse_document(line)?.value, line.to_string())
}

fn run_from(doc: &Json, raw: String) -> Result<RunResult, String> {
    let o = doc.as_obj().ok_or("result is not an object")?;
    let field = |k: &str| o.get(k).ok_or(format!("result lacks {k}"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok(RunResult {
        workload: field("workload")?.as_str().unwrap_or_default().to_string(),
        trace: field("trace")?.as_u64() == Some(1),
        correct: field("correct")?.as_bool() == Some(true),
        metrics,
        raw,
    })
}

/// What the suite was asked to do.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    pub base: Opts,
    pub workloads: Vec<String>,
    /// Time-bounded children instead of the fixed op lists.
    pub seconds: Option<f64>,
    pub out: Option<std::path::PathBuf>,
}

/// Run one workload in a child process and return its full result.
fn child(
    workload: &str,
    opts: &Opts,
    seconds: Option<f64>,
    cycles: u64,
    echo: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &opts.seed.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--workers", &opts.workers.to_string()]);
    match seconds {
        Some(s) => cmd.args(["--seconds", &s.to_string()]),
        None => cmd.args(["--cycles", &cycles.to_string()]),
    };
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        for line in text
            .lines()
            .filter(|l| !l.starts_with("full: ") && !l.starts_with('{'))
        {
            println!("{line}");
        }
    }
    let full = text
        .lines()
        .find_map(|l| l.strip_prefix("full: "))
        .ok_or(format!(
            "{workload} printed no result (exit {:?})",
            out.status.code()
        ))?;
    let run = parse_run(full)?;
    if !out.status.success() && run.correct {
        return Err(format!("{workload} exited {:?}", out.status.code()));
    }
    Ok(run)
}

/// The suite's runs in order: every workload untraced, then traced over a
/// quarter of the op list.
fn plan(s: &SuiteOpts) -> Vec<(&str, Opts, u64)> {
    let mut runs = Vec::new();
    for w in &s.workloads {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                ..s.base.clone()
            };
            let cycles = if trace {
                (suite_cycles(w) / 4).max(1)
            } else {
                suite_cycles(w)
            };
            runs.push((w.as_str(), opts, cycles));
        }
    }
    runs
}

/// The whole suite, each run in its own process. Returns whether all were
/// correct.
pub fn run_suite(s: &SuiteOpts) -> Result<bool, String> {
    let mut runs = Vec::new();
    for (w, opts, cycles) in plan(s) {
        runs.push(child(w, &opts, s.seconds, cycles, true)?);
    }
    if let Some(path) = &s.out {
        std::fs::write(path, results_document(&s.base, &runs))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(runs.iter().all(|r| r.correct))
}

/// `--baseline FILE`: two full sets of this code, their runs interleaved
/// (A then B for each workload and mode, so minute-scale host drift hits
/// both alike), and the table comparing them.
pub fn run_baseline(s: &SuiteOpts, path: &std::path::Path) -> Result<bool, String> {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (w, opts, cycles) in plan(s) {
        a.push(child(w, &opts, s.seconds, cycles, true)?);
        b.push(child(w, &opts, s.seconds, cycles, false)?);
    }
    let (table, agree) = compare_runs(&a, &b);
    print!("{table}");
    let lines: Vec<String> = table
        .lines()
        .map(|l| format!("    \"{}\"", l.replace('"', "'")))
        .collect();
    let doc = format!(
        "{{\n\"sets\": [\n{},\n{}],\n\"compare\": [\n{}\n]\n}}\n",
        results_document(&s.base, &a).trim_end(),
        results_document(&s.base, &b).trim_end(),
        lines.join(",\n")
    );
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(agree && a.iter().chain(&b).all(|r| r.correct))
}

fn results_document(base: &Opts, runs: &[RunResult]) -> String {
    let mut s = format!(
        "{{\n  \"benchmark\": \"ckptbench\",\n  \"seed\": {},\n  \"workers\": {},\n  \"host_cores\": {},\n  \"runs\": [\n",
        base.seed,
        base.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 == runs.len() { "" } else { "," };
        writeln!(s, "    {}{sep}", r.raw).expect("write to string");
    }
    s.push_str("  ]\n}\n");
    s
}

/// Units whose metrics are counts or simulated time: they must repeat
/// exactly for one seed and one op list.
fn is_exact(name: &str) -> bool {
    // Steals and merge stalls count thread interleavings, not work.
    if matches!(name, "par.steals" | "par.merge_stalls" | "par.steal_share") {
        return false;
    }
    name.starts_with("count.")
        || lookup(name).is_some_and(|d| matches!(d.unit, "count" | "B" | "B/B" | "virt_ms"))
}

/// `--check-repeat`: two runs with one seed must agree on every exact
/// metric; a run with the next seed must differ where the seed is used.
/// Smoke-sized op lists: this checks the harness, not the host.
pub fn check_repeat(base: &Opts, workloads: &[String]) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads {
        for trace in [false, true] {
            let opts = Opts {
                trace,
                smoke: true,
                ..base.clone()
            };
            let a = child(w, &opts, None, 2, false)?;
            let b = child(w, &opts, None, 2, false)?;
            let next = Opts {
                seed: base.seed + 1,
                ..opts.clone()
            };
            let c = child(w, &next, None, 2, false)?;
            let mode = if trace { "traced" } else { "untraced" };
            let mut exact = 0;
            for (name, va) in a.metrics.iter().filter(|(n, _)| is_exact(n)) {
                exact += 1;
                if b.metrics.get(name) != Some(va) {
                    ok = false;
                    println!(
                        "{w} ({mode}): {name} did not repeat: {va} then {:?}",
                        b.metrics.get(name)
                    );
                }
            }
            let digest = |r: &RunResult| r.metrics.get("count.state_digest32").copied();
            let moved = digest(&a) != digest(&c);
            // crash_cells is seedless: exhaustive and deterministic.
            let want_moved = w != "crash_cells";
            if moved != want_moved {
                ok = false;
                println!(
                    "{w} ({mode}): seed {} vs {}: state digest moved = {moved}",
                    base.seed, next.seed
                );
            }
            if !(a.correct && b.correct && c.correct) {
                ok = false;
                println!("{w} ({mode}): a run was not correct");
            }
            println!(
                "{w} ({mode}): {exact} exact metrics repeat under seed {}; seed {} {}",
                base.seed,
                next.seed,
                if want_moved {
                    "gives other inputs"
                } else {
                    "changes nothing (seedless)"
                }
            );
        }
    }
    Ok(ok)
}

/// How one metric of one workload compares between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A side's own segment spread exceeds the bound: the pair cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against baseline `a` for a metric with the given direction
/// and bound; `noise` is the larger of the two sides' segment spreads.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, noise: f64) -> Verdict {
    let worse_by = match better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    };
    if a == b || worse_by <= 0.0 {
        Verdict::Ok
    } else if bound > 0.0 && noise > bound {
        Verdict::Unresolved
    } else if worse_by <= bound {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

fn load_results(path: &str) -> Result<Vec<RunResult>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_document(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .value;
    let runs = doc
        .as_obj()
        .and_then(|o| o.get("runs"))
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no \"runs\" array"))?;
    runs.iter().map(|r| run_from(r, String::new())).collect()
}

/// `--compare A.json B.json`: one block per workload, one row per
/// end-to-end metric, with both values, delta, bound and verdict.
pub fn compare(a_path: &str, b_path: &str) -> Result<(String, bool), String> {
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    Ok(compare_runs(&a, &b))
}

pub fn compare_runs(a: &[RunResult], b: &[RunResult]) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let find = |rs: &[RunResult]| rs.iter().find(|r| r.workload == w && !r.trace).cloned();
        let (Some(ra), Some(rb)) = (find(a), find(b)) else {
            continue;
        };
        writeln!(out, "== {w}").expect("write to string");
        writeln!(
            out,
            "  {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
            "metric", "A", "B", "delta", "bound"
        )
        .expect("write to string");
        for d in E2E.iter().chain(EXTRA) {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(d.name), rb.metrics.get(d.name)) else {
                continue;
            };
            let noise_of = |r: &RunResult| {
                r.metrics
                    .get(&format!("noise.{}_iqr_share", d.name))
                    .copied()
                    .unwrap_or(0.0)
            };
            let verdict = judge(va, vb, d.better, d.bound, noise_of(&ra).max(noise_of(&rb)));
            all_ok &= verdict != Verdict::Regressed;
            let arrow = if d.better == Better::Higher { "^" } else { "v" };
            writeln!(
                out,
                "  {:<30} {:>14.5} {:>14.5} {:>+8.2}% {:>6.1}%  {} ({arrow} {})",
                d.name,
                va,
                vb,
                (vb - va) / va.abs().max(1e-300) * 100.0,
                d.bound * 100.0,
                verdict.as_str(),
                d.unit
            )
            .expect("write to string");
        }
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_noise() {
        use Better::*;
        use Verdict::*;
        assert_eq!(judge(100.0, 95.0, Higher, 0.10, 0.01), Ok);
        assert_eq!(judge(100.0, 85.0, Higher, 0.10, 0.01), Regressed);
        assert_eq!(
            judge(100.0, 115.0, Higher, 0.10, 0.01),
            Ok,
            "better is never a regression"
        );
        assert_eq!(judge(100.0, 115.0, Lower, 0.10, 0.01), Regressed);
        assert_eq!(judge(100.0, 85.0, Lower, 0.10, 0.5), Ok);
        assert_eq!(
            judge(100.0, 115.0, Lower, 0.10, 0.2),
            Unresolved,
            "noisier than the bound"
        );
        assert_eq!(judge(100.0, 104.0, Lower, 0.10, 0.2), Unresolved);
        // Exact metrics: bound 0, any worsening regresses, noise is moot.
        assert_eq!(judge(1.5, 1.5, Lower, 0.0, 0.0), Ok);
        assert_eq!(judge(1.5, 1.5001, Lower, 0.0, 0.0), Regressed);
        assert_eq!(judge(1.5, 1.4, Lower, 0.0, 0.0), Ok);
    }

    fn run(workload: &str, pairs: &[(&str, f64)]) -> RunResult {
        RunResult {
            workload: workload.into(),
            trace: false,
            correct: true,
            metrics: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            raw: String::new(),
        }
    }

    #[test]
    fn compare_prints_one_block_per_workload() {
        let a = vec![
            run(
                "full_raw",
                &[
                    ("work_per_s", 10.0),
                    ("virt_ckpt_ms", 89.9),
                    ("noise.work_per_s_iqr_share", 0.02),
                ],
            ),
            run("crash_cells", &[("work_per_s", 64.0)]),
        ];
        let mut b = a.clone();
        b[0].metrics.insert("work_per_s".into(), 7.0);
        let (table, ok) = compare_runs(&a, &b);
        assert!(!ok);
        assert_eq!(table.matches("== ").count(), 2);
        assert!(table.contains("regressed") && table.contains("virt_ckpt_ms"));
        let (_, ok) = compare_runs(&a, &a);
        assert!(ok);
    }

    #[test]
    fn exactness_is_decided_by_unit() {
        assert!(is_exact("virt.ckpt_ms") && is_exact("cas.novel_chunks") && is_exact("count.x"));
        assert!(is_exact("commit_bytes_per_guest_byte"));
        assert!(
            !is_exact("work_per_s") && !is_exact("par.steals") && !is_exact("trace.overhead_share")
        );
    }

    #[test]
    fn a_full_line_parses_back() {
        let mut r = crate::metrics::Report::new("full_raw", 5, true, 2);
        r.set("core.capture_s", 0.25);
        let parsed = parse_run(&r.full_line()).unwrap();
        assert_eq!(
            (parsed.workload.as_str(), parsed.trace, parsed.correct),
            ("full_raw", true, true)
        );
        assert_eq!(parsed.metrics["core.capture_s"], 0.25);
    }
}
