//! The tracing wrappers and the mirrored scenario construction must not
//! change what is simulated: on a short horizon, every workload's traced
//! run gives the plain run's digest (flow log, `TaqStats`, link
//! counters) and event count, and passes the same checks.

use taq_perfbench::workload::{run_once, Kind, RunOpts, Sizes};

const SEED: u64 = 3;

#[test]
fn traced_runs_simulate_exactly_what_plain_runs_do() {
    let sizes = Sizes::short();
    for kind in Kind::COMMAND_LINE.into_iter().chain([Kind::WeblogObserved]) {
        let plain = run_once(kind, &sizes, SEED, &RunOpts::default());
        let traced = run_once(
            kind,
            &sizes,
            SEED,
            &RunOpts {
                trace: true,
                ..RunOpts::default()
            },
        );
        let name = kind.name();
        assert!(plain.failures.is_empty(), "{name}: {:?}", plain.failures);
        assert!(traced.failures.is_empty(), "{name}: {:?}", traced.failures);
        assert!(plain.events > 0, "{name}: nothing simulated");
        assert_eq!(plain.events, traced.events, "{name}: event count");
        assert_eq!(plain.digest, traced.digest, "{name}: digest");
        // A flow log that lost the unfinished transfers of wrapped hosts
        // would still agree on completed downloads; the digest covers the
        // unfinished ones too, and this names the failure if it happens.
        assert_eq!(
            plain.outcomes.downloads, traced.outcomes.downloads,
            "{name}"
        );
        let counted = traced.counted.expect("traced runs count link work");
        assert_eq!(
            counted.enqueues, plain.links.offered,
            "{name}: counted enqueues"
        );
    }
}

#[test]
fn cross_checked_configurations_agree() {
    let sizes = Sizes::short();
    let churn = run_once(Kind::WeblogChurn, &sizes, SEED, &RunOpts::default());
    let observed = run_once(Kind::WeblogObserved, &sizes, SEED, &RunOpts::default());
    assert_eq!(churn.digest, observed.digest, "observing changed the run");
    let telemetry = observed.telemetry.expect("observed run has telemetry");
    assert_eq!(
        telemetry.link_events.get("enqueue").copied(),
        Some(observed.links.offered)
    );

    let serial = run_once(Kind::AccessTree, &sizes, SEED, &RunOpts::default());
    for trace in [false, true] {
        let sharded = run_once(
            Kind::AccessTree,
            &sizes,
            SEED,
            &RunOpts {
                trace,
                shards: Some(2),
            },
        );
        assert!(sharded.failures.is_empty(), "{:?}", sharded.failures);
        assert_eq!(
            sharded.digest, serial.digest,
            "sharded run differs from serial"
        );
        assert_eq!(sharded.events, serial.events);
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let sizes = Sizes::short();
    let a = run_once(Kind::WeblogChurn, &sizes, 1, &RunOpts::default());
    let b = run_once(Kind::WeblogChurn, &sizes, 2, &RunOpts::default());
    assert_ne!(a.digest, b.digest);
}
