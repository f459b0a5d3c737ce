//! Property tests on the striped replica pool: random object sets spread
//! over K independent quorum sets, then subjected to adversarial
//! per-stripe damage. The invariants:
//!
//! * objects on stripes damaged within the `N − w` tolerance read back
//!   byte-identical (quorum reads mask the damage);
//! * objects on stripes damaged beyond tolerance refuse with a typed
//!   [`StorageError::QuorumLost`] — never wrong bytes;
//! * damage on one stripe NEVER bleeds into another: every object routed
//!   to a different stripe stays byte-identical no matter how badly the
//!   victim stripe is mauled;
//! * an overwrite refused on a wounded stripe leaves its committed values
//!   where they were.
//!
//! The checks themselves are written once over `Striped<C>` in
//! `common/striped.rs` (the coded pool runs the same ones from
//! `erasure_properties.rs`); this file supplies the replicated geometry.
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;
#[path = "common/striped.rs"]
mod striped;

use ckpt_restart::replica::Replicate;
use ckpt_restart::storage::StorageError;
use striped::Case;

fn case_of(case: u64) -> Case<Replicate> {
    let stripes = [2usize, 3, 4][(case % 3) as usize];
    let (n, w) = if case.is_multiple_of(2) {
        (3, 2)
    } else {
        (5, 3)
    };
    Case {
        store: striped::replicated_pool(stripes, n, w),
        tolerated: n - w,
        refusal: Box::new(move |e| {
            matches!(*e, StorageError::QuorumLost { acked, needed }
                if (acked as usize) < w && needed as usize == w)
        }),
    }
}

#[test]
fn per_stripe_damage_is_contained_and_typed() {
    striped::per_stripe_damage_is_contained_and_typed(61_000, case_of);
}

#[test]
fn whole_stripe_failure_leaves_other_stripes_fully_readable() {
    // Every replica of one stripe powered off.
    striped::dead_stripe_never_bleeds_into_the_others(87_000, case_of, |c| {
        c.store.striped_set().stripe(0).len()
    });
}

#[test]
fn failed_overwrite_preserves_committed_values_per_stripe() {
    striped::failed_overwrite_preserves_committed_values_per_stripe(98_000, case_of);
}
