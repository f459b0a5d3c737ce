//! What one guest step costs the host: every native kernel stepped under
//! `Kernel::run_for` (protection, tracking and the soft TLB on every
//! access) and on a bare `VecMem`, at the crash matrix's guest parameters
//! and at `AppParams::medium()`.
//!
//! ```text
//! cargo run --release --example guest_steprate
//! ```
//!
//! Host time only, best of `ROUNDS` runs: it prints and gates nothing. The
//! step counts and the TLB hit share are deterministic; the nanoseconds are
//! this host's.

use ckpt_restart::ckpt::crashpoint;
use ckpt_restart::simos::apps::{self, AppParams, NativeKind, VecMem};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::Kernel;
use std::hint::black_box;
use std::time::Instant;

/// Virtual time each kernel run covers.
const WINDOW_NS: u64 = 30_000_000;
const ROUNDS: usize = 5;

/// One run under the kernel: (steps completed, host ns, soft-TLB hit share).
fn under_kernel(kind: NativeKind, params: &AppParams) -> (u64, u128, f64) {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_native(kind, params.clone()).expect("spawn");
    let t0 = Instant::now();
    k.run_for(WINDOW_NS).expect("run");
    let ns = t0.elapsed().as_nanos();
    let p = k.process(pid).expect("guest");
    let (hits, misses) = (p.mem.stats.tlb_hits, p.mem.stats.tlb_misses);
    (p.work_done, ns, hits as f64 / (hits + misses).max(1) as f64)
}

/// The same number of steps on a plain byte vector: host ns.
fn on_vecmem(kind: NativeKind, params: &AppParams, steps: u64) -> u128 {
    let mut mem = VecMem::new(params);
    apps::init(kind, params, &mut mem);
    let t0 = Instant::now();
    for _ in 0..steps {
        black_box(apps::step(kind, params, &mut mem));
    }
    t0.elapsed().as_nanos()
}

fn main() {
    let never_exits = |mut p: AppParams| {
        p.total_steps = u64::MAX;
        p
    };
    let sets = [
        ("matrix", never_exits(crashpoint::app_params())),
        ("medium", never_exits(AppParams::medium())),
    ];
    println!(
        "guest step rate, {} virtual ms per run, best of {ROUNDS} (host time)",
        WINDOW_NS / 1_000_000
    );
    println!(
        "{:<7} {:<13} {:>8} {:>14} {:>14} {:>14} {:>14} {:>7} {:>8}",
        "params",
        "kind",
        "steps",
        "kernel ns/step",
        "kernel steps/s",
        "vecmem ns/step",
        "vecmem steps/s",
        "k/v",
        "tlb hit"
    );
    for (label, params) in &sets {
        for kind in NativeKind::ALL {
            let mut best_kernel = u128::MAX;
            let mut best_vec = u128::MAX;
            let (mut steps, mut hit_share) = (0, 0.0);
            for _ in 0..ROUNDS {
                let (s, ns, share) = under_kernel(kind, params);
                (steps, hit_share) = (s, share);
                best_kernel = best_kernel.min(ns);
                best_vec = best_vec.min(on_vecmem(kind, params, s));
            }
            let per = |ns: u128| ns as f64 / steps.max(1) as f64;
            println!(
                "{:<7} {:<13} {:>8} {:>14.1} {:>14.0} {:>14.1} {:>14.0} {:>6.2}x {:>8.4}",
                label,
                format!("{kind:?}"),
                steps,
                per(best_kernel),
                1e9 / per(best_kernel),
                per(best_vec),
                1e9 / per(best_vec),
                per(best_kernel) / per(best_vec),
                hit_share
            );
        }
    }
}
