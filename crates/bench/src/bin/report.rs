//! The experiment reporter: regenerates every table and figure of the
//! reproduction on the deterministic simulator.
//!
//! ```text
//! cargo run --release --bin report -- all            # everything
//! cargo run --release --bin report -- table1         # one experiment
//! cargo run --release --bin report -- timings        # wall-clock only, under its ceilings
//! cargo run --release --bin report -- list           # what exists
//! ```

#![forbid(unsafe_code)]

use ckpt_bench as bench;

/// `report sweep [--out DIR]`: run every swept experiment, write the
/// canonical `SWEEP_cXX.json` artifacts plus the `RUNBOOK.json`
/// manifest, and print the per-cell wall-clock so CI can attribute a
/// perf regression to the specific sweep cell that moved.
fn run_sweep_cmd(out_dir: &std::path::Path) -> std::io::Result<String> {
    use bench::artifact::canonical_document;
    use bench::runbook::{build_runbook, ArtifactEntry};
    use bench::sweep::sweep_artifact;

    std::fs::create_dir_all(out_dir)?;
    let batch = bench::swept::sweep_batch();
    let mut out = String::new();
    for (exp, file, runs) in &batch {
        let doc = canonical_document(&sweep_artifact(runs));
        std::fs::write(out_dir.join(file), &doc)?;
        out.push_str(&format!("{exp} -> {file} ({} bytes)\n", doc.len()));
        for run in runs {
            let wall: f64 = run.cell_walls.iter().map(|(_, w)| w).sum();
            out.push_str(&format!(
                "  plan {} ({} jobs, plan_hash {}, wall_s={wall:.3})\n",
                run.plan_name,
                run.jobs.len(),
                run.plan_hash,
            ));
            for (label, w) in &run.cell_walls {
                out.push_str(&format!("    cell {} {label} wall_s={w:.3}\n", run.plan_name));
            }
        }
    }
    let entries: Vec<ArtifactEntry<'_>> = batch
        .iter()
        .map(|(exp, file, runs)| ArtifactEntry {
            experiment: exp,
            file: file.clone(),
            runs,
        })
        .collect();
    let rb = build_runbook(&entries);
    let rb_doc = canonical_document(&rb);
    std::fs::write(out_dir.join("RUNBOOK.json"), &rb_doc)?;
    let total = rb.get("total_jobs").and_then(|j| j.as_u64()).unwrap_or(0);
    out.push_str(&format!("RUNBOOK.json ({total} jobs total)"));
    Ok(out)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(|s| s.as_str()).unwrap_or("all");
    let out = match which {
        "list" => {
            let table = bench::registry::REGISTRY;
            let names: Vec<&str> = table.iter().filter_map(|e| e.aliases.first().copied()).collect();
            let standalone: Vec<String> =
                table.iter().filter(|e| !e.in_all).map(|e| e.aliases.join(" ")).collect();
            println!("experiments: {} timings sweep all", names.join(" "));
            println!(
                "(standalone — not part of `all`, which carries trace without its host-side counters: {})",
                standalone.join(", ")
            );
            println!("(sweep writes the canonical SWEEP_cXX.json artifacts and the RUNBOOK.json manifest; --out DIR picks the directory)");
            return;
        }
        "timings" => match bench::run_timings() {
            Ok((table, None)) => table,
            Ok((table, Some(exceeded))) => {
                println!("{table}");
                eprintln!("FAIL: {exceeded}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("could not write BENCH_report.json: {e}");
                std::process::exit(1);
            }
        },
        "sweep" => {
            let out_dir = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .map(std::path::PathBuf::from)
                .unwrap_or_else(|| std::path::PathBuf::from("."));
            match run_sweep_cmd(&out_dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("could not write sweep artifacts: {e}");
                    std::process::exit(1);
                }
            }
        }
        "all" => bench::run_all(),
        other => match bench::registry::find(other) {
            Some(e) => (e.run)(),
            None => {
                eprintln!("unknown experiment '{other}' — try: report list");
                std::process::exit(2);
            }
        },
    };
    println!("{out}");
}
