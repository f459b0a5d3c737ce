//! Regenerate the paper's two artifacts — Table 1 and Figure 1 — from the
//! implemented systems, and verify the table against the paper.
//!
//! ```text
//! cargo run --release --example survey_report
//! ```

use ckpt_restart::survey;

fn main() {
    println!("Figure 1 — classification of checkpoint/restart implementations\n");
    println!("{}", survey::render_figure1(&survey::taxonomy()));

    println!("Table 1 — surveyed systems (regenerated from mechanism metadata)\n");
    let generated = survey::table1_generated();
    println!("{}", survey::render_table1(&generated));

    let paper = survey::table1_paper();
    if generated == paper {
        println!("✓ generated table matches the paper byte-for-byte");
    } else {
        println!("✗ DIVERGENCE from the paper:");
        for (g, p) in generated.iter().zip(&paper) {
            if g != p {
                println!("  {}: generated {:?} ≠ paper {:?}", p.name, g, p);
            }
        }
        std::process::exit(1);
    }

    println!("\nPer-system provenance notes:");
    for s in &survey::SYSTEMS {
        println!("  {:<17} {}", s.name, s.notes);
    }
}
