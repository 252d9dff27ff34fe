//! With the autoscaler at its defaults — disabled, one replica per service —
//! the load tracker is never consulted, so every committed experiment
//! artifact stays byte-identical to its pre-autoscaling output. These tests
//! pin that: run each experiment twice and require identical bytes, and pin
//! the defaults themselves so a future default-flip fails loudly here rather
//! than silently perturbing the committed figures.

#[test]
fn autoscaling_is_off_by_default() {
    assert!(
        !edgectl::ControllerConfig::default().autoscale,
        "autoscaling must stay opt-in"
    );
}

#[test]
fn migration_is_off_by_default() {
    let d = edgectl::MigrationConfig::default();
    assert!(!d.live(), "live migration must stay opt-in");
    assert_eq!(
        d.state_bytes_per_request, 0,
        "defaults keep the session ledger untouched"
    );
    // A default-constructed controller carries the same inert config, so
    // with no `migration:` block the committed figures stay byte-identical:
    // no ledger entry is ever created, no trigger fires, no tick schedules.
    let cc = edgectl::ControllerConfig::default();
    assert!(!cc.migration.live());
    assert_eq!(cc.migration.state_bytes_per_request, 0);
}

#[test]
fn journal_is_off_by_default() {
    let d = edgectl::JournalConfig::default();
    assert!(!d.enabled, "the write-ahead journal must stay opt-in");
    // A default-constructed controller carries the same disabled config:
    // with no `journal:` block nothing is appended, no snapshot is cut, no
    // crash can be scheduled (FaultPlan::runtime() leaves controller_crash
    // at 0), so every committed figure stays byte-identical.
    let cc = edgectl::ControllerConfig::default();
    assert!(!cc.journal.enabled);
    assert_eq!(
        desim::FaultPlan::runtime(0.1, 1).controller_crash,
        0.0,
        "runtime chaos presets must not start crashing the controller"
    );
}

#[test]
fn fig13_is_byte_identical_across_runs() {
    let a = testbed::experiments::fig13(8);
    let b = testbed::experiments::fig13(8);
    assert_eq!(a.body, b.body);
    assert_eq!(a.table.to_csv(), b.table.to_csv());
}

#[test]
fn mobility_artifact_is_byte_identical_across_runs() {
    let (_, a) = bench::mobility::run(7, true, false);
    let (_, b) = bench::mobility::run(7, true, false);
    assert_eq!(a, b);
}

#[test]
fn recovery_artifact_at_rate_zero_is_byte_identical_across_runs() {
    // Fault rate 0: the pure control path, no chaos — exactly the regime
    // the committed baseline artifacts were generated in.
    let (_, a) = bench::recovery::run(7, 0.0, true, false);
    let (_, b) = bench::recovery::run(7, 0.0, true, false);
    assert_eq!(a, b);
}
