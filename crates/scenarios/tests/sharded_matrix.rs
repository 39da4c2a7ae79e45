//! The sharded differential harness: a [`ScenarioStack`] replaying bursts
//! on a multi-shard engine (`set_sharding`) must be observationally
//! identical to the serial per-packet oracle — same ground-truth reports,
//! same collected sketch state on every edge every epoch, same decode,
//! localization, staged reconfigurations, and scores — for **every**
//! scenario in the golden matrix, on **every** fabric of the topology
//! zoo, at any shard/worker layout.

use chm_netsim::Sharding;
use chm_scenarios::{standard_matrix, ReplayMode, Scenario, ScenarioStack, TopologySpec};
use chm_workloads::VictimSelection;

/// Steps the serial per-packet stack and the sharded burst stack epoch by
/// epoch and asserts bit-identical observables throughout.
fn assert_sharded_identical(s: &Scenario, sharding: Sharding) {
    let mut serial = ScenarioStack::new(s);
    let mut sharded = ScenarioStack::new(s);
    sharded.set_sharding(sharding);
    let base = s.base_trace();
    for _ in 0..s.epochs {
        let a = serial.step_epoch(s, &base, ReplayMode::PerPacket);
        let b = sharded.step_epoch(s, &base, ReplayMode::Burst);
        let e = a.report.epoch;
        let name = &s.name;
        let tag = format!("{name} e{e} {sharding:?}");
        assert_eq!(a.report, b.report, "{tag}: epoch report");
        assert_eq!(a.received, b.received, "{tag}: report-loss mask");
        assert_eq!(a.collected.len(), b.collected.len(), "{tag}: edge count");
        for (i, (ga, gb)) in a.collected.iter().zip(&b.collected).enumerate() {
            assert_eq!(ga.runtime, gb.runtime, "{tag} edge{i}: runtime");
            assert_eq!(ga.classifier, gb.classifier, "{tag} edge{i}: classifier");
            assert_eq!(ga.ingress_pkts, gb.ingress_pkts, "{tag} edge{i}: ingress counter");
            assert_eq!(ga.egress_pkts, gb.egress_pkts, "{tag} edge{i}: egress counter");
            assert_eq!(ga.up_hh, gb.up_hh, "{tag} edge{i}: up_hh");
            assert_eq!(ga.up_hl, gb.up_hl, "{tag} edge{i}: up_hl");
            assert_eq!(ga.up_ll, gb.up_ll, "{tag} edge{i}: up_ll");
            assert_eq!(ga.down_hl, gb.down_hl, "{tag} edge{i}: down_hl");
            assert_eq!(ga.down_ll, gb.down_ll, "{tag} edge{i}: down_ll");
        }
        assert_eq!(a.loss_report, b.loss_report, "{tag}: loss report");
        assert_eq!(a.localization, b.localization, "{tag}: localization");
        assert_eq!(a.staged, b.staged, "{tag}: staged runtime");
        assert_eq!(a.metrics, b.metrics, "{tag}: metrics");
    }
}

/// Shrinks a matrix scenario to differential-test size (the equivalence is
/// exact at any size; small keeps the full matrix fast).
fn shrink(mut s: Scenario) -> Scenario {
    s.n_flows = 300;
    s.epochs = 2;
    s
}

/// Every scenario of the golden adversarial matrix, on a shard count that
/// does not divide the edge count (the asymmetric case) with more workers
/// than the host has cores.
#[test]
fn sharded_stack_matches_serial_across_the_whole_matrix() {
    for s in standard_matrix(true).into_iter().map(shrink) {
        assert_sharded_identical(&s, Sharding { shards: 3, workers: 2 });
    }
}

/// The topology-sweep fabrics under the shared adversarial shape
/// (congestion coupling + a structural hot spot, like the bench sweep),
/// at several shard counts including more shards than some fabrics have
/// edge switches.
#[test]
fn sharded_stack_matches_serial_on_every_sweep_fabric() {
    let fabrics: Vec<(&str, TopologySpec)> = vec![
        ("testbed", TopologySpec::Testbed),
        ("fat-tree-k4", TopologySpec::KaryFatTree { k: 4 }),
        ("fat-tree-k8", TopologySpec::KaryFatTree { k: 8 }),
        ("leaf-spine-8x4", TopologySpec::LeafSpine { n_leaf: 8, n_spine: 4, hosts_per_leaf: 2 }),
        ("leaf-spine-asym", TopologySpec::LeafSpine { n_leaf: 6, n_spine: 3, hosts_per_leaf: 4 }),
        ("abilene-wan", TopologySpec::AbileneWan { hosts_per_node: 2 }),
    ];
    for (i, (name, spec)) in fabrics.into_iter().enumerate() {
        let b = Scenario::builder(name)
            .seed(0xFAB0 ^ i as u64)
            .topology(spec)
            .flows(300)
            .epochs(2)
            .loss(VictimSelection::RandomRatio(0.1), 0.05)
            .congestion();
        let s = match spec {
            TopologySpec::AbileneWan { hosts_per_node } => {
                let hub = chm_netsim::WanGraph::abilene(hosts_per_node).hub();
                b.derate_switch(chm_netsim::SwitchRole::Edge, hub, 0.3)
            }
            _ => b.derate_switch(chm_netsim::SwitchRole::Core, 0, 0.3),
        }
        .build();
        for sharding in [Sharding::of(2), Sharding::of(3), Sharding { shards: 5, workers: 2 }] {
            assert_sharded_identical(&s, sharding);
        }
    }
}
