//! `ckptbench`: a layered checkpoint -> commit -> restart benchmark,
//! measured from outside the crates through their public functions.
//! See `README.md` for the metrics, the workloads and how to read them.

mod cluster;
mod crash;
mod host;
mod measure;
mod metrics;
mod replay;
mod single;
mod span;
mod stats;
mod suite;
mod timed;

use measure::Opts;
use metrics::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "full_raw",
    "incr_dedup_repl",
    "full_rs_degraded",
    "cluster_run",
    "crash_cells",
];

const USAGE: &str = "\
usage: run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the driver's form)
       run.sh [--seed N] [--workers W] [--workloads a,b] [--seconds S] [--out FILE]
                                                   every workload, untraced then traced
       run.sh --baseline FILE                     two interleaved sets and their comparison
       run.sh --check-repeat                      same seed repeats, next seed differs
       run.sh --compare A.json B.json             judge B against A, metric by metric
       run.sh --smoke                             tiny op lists, every verification
options of one run: --cycles N (fixed op list instead of --seconds), --smoke, --spans FILE";

/// Run one workload in this process.
pub fn run_workload(name: &str, opts: &Opts) -> Option<Report> {
    match name {
        "cluster_run" => Some(cluster::run(opts)),
        "crash_cells" => Some(crash::run(opts)),
        _ => single::run(name, opts),
    }
}

/// The command line, parsed.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    workloads: Option<Vec<String>>,
    seed: Option<u64>,
    seconds: Option<f64>,
    cycles: Option<u64>,
    workers: Option<usize>,
    trace: bool,
    smoke: bool,
    check_repeat: bool,
    compare: Option<(String, String)>,
    baseline: Option<PathBuf>,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or(format!("{flag} wants a value"))
    }
    fn number<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
        s.parse().map_err(|_| format!("{flag}: cannot read {s:?}"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?.clone()),
            "--workloads" => {
                a.workloads = Some(
                    value(&mut it, flag)?
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--seed" => a.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => a.seconds = Some(number(value(&mut it, flag)?, flag)?),
            "--cycles" => a.cycles = Some(number(value(&mut it, flag)?, flag)?),
            "--workers" => a.workers = Some(number(value(&mut it, flag)?, flag)?),
            "--trace" => a.trace = number::<u8>(value(&mut it, flag)?, flag)? != 0,
            "--smoke" => a.smoke = true,
            "--check-repeat" => a.check_repeat = true,
            "--compare" => {
                a.compare = Some((value(&mut it, flag)?.clone(), value(&mut it, flag)?.clone()))
            }
            "--baseline" => a.baseline = Some(value(&mut it, flag)?.into()),
            "--out" => a.out = Some(value(&mut it, flag)?.into()),
            "--spans" => a.spans = Some(value(&mut it, flag)?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds wants a number in (0, 600]".into());
    }
    if a.workers == Some(0) || a.cycles == Some(0) {
        return Err("--workers and --cycles want at least 1".into());
    }
    for w in a.workload.iter().chain(a.workloads.iter().flatten()) {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; there are {WORKLOADS:?}"));
        }
    }
    Ok(a)
}

/// One run in this process: every metric by name for a human, then the
/// full result, then the contract's line last.
fn one_run(name: &str, opts: &Opts) -> Result<bool, String> {
    let report = run_workload(name, opts).ok_or(format!("unknown workload {name}"))?;
    println!("{}", metrics::CAVEAT);
    if std::env::var_os("MALLOC_TRIM_THRESHOLD_").is_none() {
        println!(
            "note: started without run.sh, so glibc malloc is not pinned: host times \
             are bistable and do not compare with runs made through run.sh."
        );
    }
    print!("{}", report.table());
    println!("full: {}", report.full_line());
    if !report.correct() {
        // No result line for a run whose outputs were wrong.
        return Ok(false);
    }
    println!("{}", report.contract_line()?);
    Ok(true)
}

/// `--smoke`: every workload, untraced and traced, tiny op lists, in this
/// process; every verification still runs.
fn smoke(opts: &Opts, workloads: &[String]) -> bool {
    let mut ok = true;
    for w in workloads {
        for trace in [false, true] {
            let o = Opts {
                trace,
                smoke: true,
                cycles: Some(2),
                ..opts.clone()
            };
            let Some(r) = run_workload(w, &o) else {
                continue;
            };
            let line = r.contract_line();
            println!(
                "smoke {w} trace={}: attempted {} failed {} {}",
                u8::from(trace),
                r.attempted,
                r.failed,
                if r.correct() && line.is_ok() {
                    "ok"
                } else {
                    "FAILED"
                }
            );
            for f in r.failures.iter().chain(line.as_ref().err()) {
                println!("  {f}");
            }
            ok &= r.correct() && line.is_ok();
        }
    }
    ok
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let base = Opts {
        seed: a.seed.unwrap_or(1),
        seconds: a.seconds.unwrap_or(12.0),
        cycles: a.cycles,
        workers: a.workers.unwrap_or_else(Opts::default_workers),
        smoke: a.smoke,
        trace: a.trace,
        spans_out: a.spans.clone(),
    };
    if let Some((x, y)) = &a.compare {
        let (table, ok) = suite::compare(x, y)?;
        print!("{table}");
        return Ok(ok);
    }
    if let Some(name) = &a.workload {
        return one_run(name, &base);
    }
    let workloads = a
        .workloads
        .clone()
        .unwrap_or_else(|| WORKLOADS.map(String::from).to_vec());
    if a.check_repeat {
        return suite::check_repeat(&base, &workloads);
    }
    if a.smoke {
        return Ok(smoke(&base, &workloads));
    }
    println!("{}", metrics::CAVEAT);
    let s = suite::SuiteOpts {
        base,
        workloads,
        seconds: a.seconds,
        out: a.out.clone(),
    };
    match &a.baseline {
        Some(path) => suite::run_baseline(&s, path),
        None => suite::run_suite(&s),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ckptbench: a correctness check or a comparison failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("ckptbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_parses() {
        let a = args("--workload full_raw --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("full_raw"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(12.0), true));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(args("--workload nosuch").is_err());
        assert!(args("--seconds 0").is_err());
        assert!(args("--seed").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("--workers 0").is_err());
    }

    /// Every workload, both modes, tiny op lists: every verification runs
    /// and the contract line carries every metric of its mode.
    #[test]
    fn smoke_runs_every_workload_and_every_verification() {
        let t = std::time::Instant::now();
        let opts = Opts {
            seed: 11,
            seconds: 0.0,
            cycles: None,
            workers: 2,
            smoke: true,
            trace: false,
            spans_out: None,
        };
        assert!(smoke(&opts, &WORKLOADS.map(String::from)));
        // About 3 s on the sandbox; the guard is for a smoke run that has
        // stopped being one, not for a busy host.
        assert!(
            t.elapsed().as_secs_f64() < 30.0,
            "smoke took {:?}",
            t.elapsed()
        );
    }
}
