//! Bounded model checking of the TLB shootdown protocol over real
//! `MixTlb` instances (see `mixtlb_check::protocol`).
//!
//! The acceptance bar (ISSUE 2): the explorer must cover *all*
//! interleavings of the two-core scenario up to its preemption bound,
//! catch each deliberately seeded bug, and pass the correct protocol
//! clean.

use mixtlb_check::protocol::{SeededBug, ShootdownScenario};
use mixtlb_check::sched::{Config, FailureKind};

#[test]
fn correct_two_core_protocol_is_clean_exhaustively() {
    let report = ShootdownScenario::two_core(SeededBug::None).explore(&Config::exhaustive());
    assert!(
        report.complete,
        "exploration must exhaust the schedule space, not stop at the cap"
    );
    assert!(report.schedules > 1, "a 2-thread scenario has real choice points");
    report.assert_clean();
}

#[test]
fn correct_three_core_protocol_is_clean_up_to_three_preemptions() {
    // Two remotes racing their sweeps/acks against the initiator: the
    // unbounded space outgrows the schedule cap, so bound the search.
    let report =
        ShootdownScenario::three_core(SeededBug::None).explore(&Config::with_preemption_bound(3));
    assert!(report.complete);
    assert!(
        report.schedules > 1_000,
        "3-core space should be large, got {}",
        report.schedules
    );
    report.assert_clean();
}

#[test]
fn doorbell_before_remap_is_caught() {
    // The initiator ringing the IPI doorbell before writing the new
    // mapping lets a fast remote sweep + demand-refill from the *old*
    // page table. Only some interleavings expose it: the explorer must
    // find one and report the stale translation.
    let report = ShootdownScenario::two_core(SeededBug::DoorbellBeforeRemap)
        .explore(&Config::exhaustive());
    let failure = report.failure.expect("the seeded reordering must be found");
    assert_eq!(failure.kind, FailureKind::Assertion);
    assert!(
        failure.message.contains("stale translation"),
        "unexpected failure: {}",
        failure.message
    );
    assert!(
        !failure.trace.is_empty(),
        "a failing schedule must come with its decision trace"
    );
}

#[test]
fn doorbell_before_remap_needs_schedules_beyond_the_first() {
    // Sanity-check that the bug is genuinely interleaving-dependent: the
    // default run-to-completion schedule (initiator first) is benign, so
    // the explorer has to *search* to expose it.
    let report = ShootdownScenario::two_core(SeededBug::DoorbellBeforeRemap)
        .explore(&Config::exhaustive());
    assert!(
        report.schedules > 1,
        "bug should not fire on the first (run-to-completion) schedule"
    );
}

#[test]
fn partial_sweep_stale_mirror_is_caught() {
    // The paper's Sec. 5.1 failure mode: sweeping only the probed set
    // leaves mirrored superpage copies in other sets. After the remap and
    // refill, a set still serves the old frame — caught by the stale
    // probe / MixTlb::check_invariants mirror-conflict.
    let report =
        ShootdownScenario::two_core(SeededBug::PartialSweep).explore(&Config::exhaustive());
    let failure = report.failure.expect("the seeded partial sweep must be found");
    assert_eq!(failure.kind, FailureKind::Assertion);
    assert!(
        failure.message.contains("stale translation")
            || failure.message.contains("mirror-conflict"),
        "unexpected failure: {}",
        failure.message
    );
}

#[test]
fn missing_ack_deadlocks_and_is_reported() {
    let report =
        ShootdownScenario::two_core(SeededBug::MissingAck).explore(&Config::exhaustive());
    let failure = report.failure.expect("the lost acknowledgement must be found");
    assert_eq!(failure.kind, FailureKind::Deadlock);
    assert!(
        failure.message.contains("EventWait"),
        "deadlock report should name the blocked wait: {}",
        failure.message
    );
}

#[test]
fn preemption_bound_zero_misses_the_reordering_bug() {
    // With zero preemptions every thread runs to completion once granted:
    // the doorbell-before-remap window never opens. This documents *why*
    // the bound matters — and that the default bound is generous enough.
    let report = ShootdownScenario::two_core(SeededBug::DoorbellBeforeRemap)
        .explore(&Config::with_preemption_bound(0));
    assert!(
        report.failure.is_none(),
        "bound 0 should serialize threads past the race, found: {:?}",
        report.failure
    );
    // One preemption is already enough to expose it.
    let report = ShootdownScenario::two_core(SeededBug::DoorbellBeforeRemap)
        .explore(&Config::with_preemption_bound(1));
    assert!(report.failure.is_some(), "bound 1 must expose the race");
}

#[test]
fn three_core_seeded_bugs_are_still_caught() {
    for (bug, expect) in [
        (SeededBug::DoorbellBeforeRemap, FailureKind::Assertion),
        (SeededBug::PartialSweep, FailureKind::Assertion),
        (SeededBug::MissingAck, FailureKind::Deadlock),
    ] {
        let report =
            ShootdownScenario::three_core(bug).explore(&Config::with_preemption_bound(2));
        let failure = report
            .failure
            .unwrap_or_else(|| panic!("3-core seeded {bug:?} must be caught"));
        assert_eq!(failure.kind, expect, "seeded {bug:?}");
    }
}

#[test]
fn schedule_cap_time_boxes_the_search() {
    let report = ShootdownScenario::three_core(SeededBug::None)
        .explore(&Config::exhaustive().max_schedules(10));
    assert_eq!(report.schedules, 10);
    assert!(!report.complete, "a capped run must not claim completeness");
    assert!(report.failure.is_none());
}
