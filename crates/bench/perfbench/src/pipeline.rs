//! The three workloads and the stage-by-stage epoch loop that drives the
//! public entry points of every layer:
//!
//! `Scenario::trace_for_epoch`/`plan_for_epoch` → `ShardedReplay::
//! run_epoch_burst_scenario` (or the serial `Simulator` path the service
//! uses) → `EdgeDataPlane::take_group` → `Controller::analyze_epoch` →
//! `reconfigure` + `stage_runtime`/`flip` → `localize_with_telemetry`.
//!
//! This is the loop `chm-bench profile` runs, without the LossRadar and
//! FlowRadar comparison tracks of `ScenarioStack::step_epoch`.

use std::collections::HashSet;

use chamelemon::{
    CollectedGroup, DataPlaneConfig, EdgeDataPlane, EpochAnalysis, Localization, NetworkState,
    RuntimeConfig,
};
use chm_common::metrics::detection_score;
use chm_common::FiveTuple;
use chm_netsim::{ShardTiming, ShardedReplay, Sharding, SiteArray, SwitchId};
use chm_obs::SpanProfiler;
use chm_scenarios::{localization_hits, Scenario, ScenarioStack, CFG_SALT};
use chm_serve::{FaultPlan, ServeConfig, ServeRuntime};
use chm_tower::MracConfig;
use chm_workloads::{Trace, VictimSelection};

use crate::digest::Digest;
use crate::probe::{Clock, Probe, Site, Stage, TimedSite, Tracer};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `ServeRuntime::step` on the `chm-serve` congested preset.
    ServeCongested,
    /// 20k flows, most of them victims: the controller runs Ill.
    Ill20k,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 2] = [Workload::ServeCongested, Workload::Ill20k];

/// How a run is laid out: it replays `blocks` independent realizations of
/// the workload one after the other (sub-seeds of the run's seed), so a
/// metric reflects the workload rather than one draw of its flow set.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Epochs each block runs inside set-up, dropped from every metric.
    pub warmup: u64,
    /// Realizations per run.
    pub blocks: u64,
    /// Measured epochs each block always runs, whatever the time budget:
    /// the digest, decode verdicts and accuracy cover exactly these, so
    /// they repeat across runs and machines.
    pub block_window: u64,
}

impl Workload {
    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeCongested => "serve-congested",
            Workload::Ill20k => "ill-20k",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Warm-up, blocks and check window. The serve window totals 1000
    /// epochs so that its p99 has ten samples beyond it. The service runs 8
    /// blocks because 600 heavy-tailed flows make one draw's packet count
    /// swing by ±20%.
    pub fn plan(self) -> RunPlan {
        match self {
            Workload::ServeCongested => RunPlan {
                warmup: 50,
                blocks: 8,
                block_window: 125,
            },
            Workload::Ill20k => RunPlan {
                warmup: 4,
                blocks: 4,
                block_window: 50,
            },
        }
    }

    /// The stage-loop sizing of the loop workloads; `None` for the service.
    pub fn loop_spec(self) -> Option<LoopSpec> {
        match self {
            Workload::ServeCongested => None,
            Workload::Ill20k => Some(LoopSpec {
                flows: 20_000,
                victim_ratio: 0.6,
                loss_rate: 0.05,
                drift: Some(0.3),
                sharding: Sharding {
                    shards: 2,
                    workers: 2,
                },
                paper_config: true,
                expect: NetworkState::Ill,
            }),
        }
    }
}

/// The `chm-serve --scenario congested` preset: 600 flows on the 4-edge
/// testbed with the queue model, microbursts and a slow-draining ToR.
pub fn serve_scenario(seed: u64) -> Scenario {
    Scenario::builder("serve_congested")
        .seed(seed)
        .flows(600)
        .congestion()
        .queue_model(8)
        .microburst(0.3, 2)
        .slow_drain_tor(1, 0.55)
        .build()
}

/// Sizing of a stage-loop workload on the 4-edge testbed.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// DCTCP flows per epoch.
    pub flows: usize,
    /// Share of flows that are victims.
    pub victim_ratio: f64,
    /// Per-victim packet loss rate.
    pub loss_rate: f64,
    /// Per-epoch victim drift, if any.
    pub drift: Option<f64>,
    /// Sharded replay layout.
    pub sharding: Sharding,
    /// `DataPlaneConfig::paper_default` when set, else `small`.
    pub paper_config: bool,
    /// The network state the controller must hold after warm-up.
    pub expect: NetworkState,
}

impl LoopSpec {
    /// The scenario this sizing describes.
    pub fn scenario(&self, name: &str, seed: u64) -> Scenario {
        let b = Scenario::builder(name).seed(seed).flows(self.flows).loss(
            VictimSelection::RandomRatio(self.victim_ratio),
            self.loss_rate,
        );
        match self.drift {
            Some(frac) => b.victim_drift(frac),
            None => b,
        }
        .build()
    }

    /// The data-plane configuration for `scenario`.
    fn config(&self, scenario: &Scenario) -> DataPlaneConfig {
        let seed = scenario.seed ^ CFG_SALT;
        if self.paper_config {
            DataPlaneConfig::paper_default(seed)
        } else {
            DataPlaneConfig::small(seed)
        }
    }
}

/// What one epoch produced, for the end-to-end metrics and the checks.
#[derive(Debug, Clone, Copy)]
pub struct EpochOut {
    /// Wall seconds of the epoch (scoring excluded).
    pub wall_s: f64,
    /// Analyze + reconfigure seconds; `None` where the epoch is opaque.
    pub response_s: Option<f64>,
    /// Packets replayed.
    pub packets: u64,
    /// Digest of the epoch's decisions.
    pub digest: u64,
    /// At least one report arrived and every decode succeeded.
    pub decode_ok: bool,
    /// Victim-detection F1.
    pub f1: f64,
    /// Localization top-3 hit rate.
    pub loc_top3: f64,
    /// Controller state after reconfiguration (stage loop only).
    pub state: Option<NetworkState>,
}

/// The deployed service, stepped one epoch at a time.
pub struct Serve {
    rt: ServeRuntime,
}

impl Serve {
    /// The service on the congested preset under the `standard` fault plan,
    /// with its default unsharded engine.
    pub fn new(seed: u64) -> Self {
        let cfg = ServeConfig::new(serve_scenario(seed), FaultPlan::standard(seed));
        Serve {
            rt: ServeRuntime::new(cfg),
        }
    }

    /// Serves one epoch; the digest covers the whole `EpochRecord`.
    pub fn epoch(&mut self, clock: Clock) -> EpochOut {
        let t0 = clock.now();
        let rec = self.rt.step();
        let wall_s = clock.now() - t0;
        let mut d = Digest::default();
        d.bytes(rec.to_jsonl().as_bytes());
        EpochOut {
            wall_s,
            response_s: None,
            packets: rec.packets,
            digest: d.value(),
            decode_ok: !rec.blind && rec.decode_ok,
            f1: rec.f1,
            loc_top3: rec.loc_top3,
            state: None,
        }
    }
}

/// Per-layer tallies of traced epochs that the span recorder does not
/// hold: shard phases, decode and tower readings.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced epochs.
    pub epochs: u64,
    /// Σ serial prologue, s.
    pub prologue_s: f64,
    /// Σ slowest phase-A shard, s.
    pub phase_a_max_s: f64,
    /// Σ slowest phase-B shard, s.
    pub phase_b_max_s: f64,
    /// Σ fragment merge, s.
    pub merge_s: f64,
    /// Σ critical path, s.
    pub crit_s: f64,
    /// Σ per-epoch max/mean of phase A.
    pub skew: f64,
    /// Epochs that replayed through shards.
    pub sharded_epochs: u64,
    /// Σ flows decoded.
    pub decoded_flows: u64,
    /// Decodes that succeeded (HH decodes count only when all of them did).
    pub decodes_ok: u64,
    /// Decodes attempted.
    pub decodes_attempted: u64,
    /// Σ time of a benchmark-side MRAC pass over the collected classifiers.
    pub mrac_s: f64,
    /// Σ histogram bins MRAC sweeps (every level of every classifier).
    pub hist_bins: u64,
    /// Σ (largest counter + 1) over the same levels.
    pub useful_bins: u64,
    /// Largest classifier counter seen.
    pub max_counter: u64,
    /// Σ dataplane calls and time, read off the timed sites.
    pub ingress_calls: u64,
    /// See `ingress_calls`.
    pub egress_calls: u64,
    /// Packets handed to the sites.
    pub site_pkts: u64,
    /// Seconds inside the sites, summed over shards.
    pub site_s: f64,
}

impl Layers {
    fn shard_timing(&mut self, t: &ShardTiming) {
        let max = |v: &[f64]| v.iter().fold(0.0_f64, |m, &x| m.max(x));
        let a_max = max(&t.phase_a);
        let a_mean = t.phase_a.iter().sum::<f64>() / t.phase_a.len().max(1) as f64;
        self.prologue_s += t.prologue_s;
        self.phase_a_max_s += a_max;
        self.phase_b_max_s += max(&t.phase_b);
        self.merge_s += t.merge_s;
        self.crit_s += t.critical_path_s();
        self.skew += if a_mean > 0.0 { a_max / a_mean } else { 1.0 };
        self.sharded_epochs += 1;
    }

    /// Decode verdicts and the tower readings of one analyzed epoch.
    fn after_analyze(
        &mut self,
        collected: &[CollectedGroup<FiveTuple>],
        a: &EpochAnalysis<FiveTuple>,
        clock: Clock,
    ) {
        let p = a.runtime.partition;
        let hh = collected
            .iter()
            .filter(|g| g.runtime.partition.m_hh > 0)
            .count() as u64;
        let hl = u64::from(p.m_hl > 0 && a.hh_decode_ok);
        let ll = u64::from(p.m_ll > 0);
        self.decodes_attempted += hh + hl + ll;
        self.decodes_ok += if a.hh_decode_ok { hh } else { 0 }
            + u64::from(a.hl_flowset.is_some())
            + u64::from(a.ll_flowset.is_some());
        self.decoded_flows += a.total_decoded() as u64;

        // The controller's flow-size step, repeated on the same inputs so
        // its cost can be read apart from the rest of `analyze`.
        let mrac = MracConfig::realtime();
        for (g, hh) in collected.iter().zip(&a.hh_flowsets) {
            let tail: Vec<u64> = hh
                .values()
                .map(|&q| a.runtime.th + q.max(0) as u64)
                .collect();
            let t0 = clock.now();
            let dist = g.classifier.flow_size_distribution(&tail, &mrac);
            self.mrac_s += clock.now() - t0;
            std::hint::black_box(dist);
            for level in 0..g.classifier.config().levels.len() {
                let top = g
                    .classifier
                    .level_counters(level)
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0);
                self.hist_bins += g.classifier.level_histogram(level).len() as u64;
                self.useful_bins += u64::from(top) + 1;
                self.max_counter = self.max_counter.max(u64::from(top));
            }
        }
    }
}

/// The stage-loop pipeline: scenario, live stack and replay engine.
pub struct Pipeline {
    scenario: Scenario,
    base: Trace<FiveTuple>,
    stack: ScenarioStack,
    edges: Vec<EdgeDataPlane<FiveTuple>>,
    engine: Option<ShardedReplay<FiveTuple>>,
    /// Decode spans of traced epochs (from `analyze_epoch_profiled`).
    pub decode_spans: SpanProfiler,
}

impl Pipeline {
    /// Builds the stack for `spec` (base trace included).
    pub fn new(spec: &LoopSpec, name: &str, seed: u64) -> Self {
        let scenario = spec.scenario(name, seed);
        let cfg = spec.config(&scenario);
        Self::with_scenario(scenario, cfg, Some(spec.sharding))
    }

    /// The service's scenario, data-plane configuration and serial engine
    /// as a stage loop (no control-channel faults), for tracing the stages
    /// `ServeRuntime::step` hides.
    pub fn serve_stages(seed: u64) -> Self {
        let scenario = serve_scenario(seed);
        let cfg = DataPlaneConfig::small(scenario.seed ^ CFG_SALT);
        Self::with_scenario(scenario, cfg, None)
    }

    /// Builds the stack over an explicit scenario and configuration.
    fn with_scenario(scenario: Scenario, cfg: DataPlaneConfig, sharding: Option<Sharding>) -> Self {
        let base = scenario.base_trace();
        let mut stack = ScenarioStack::with_config(&scenario, cfg);
        let edges = std::mem::take(&mut stack.edges);
        Pipeline {
            scenario,
            base,
            stack,
            edges,
            engine: sharding.map(ShardedReplay::new),
            decode_spans: SpanProfiler::new(),
        }
    }

    /// One epoch on the bare data planes; `probe` sees each stage.
    pub fn epoch(&mut self, clock: Clock, probe: &mut Probe) -> EpochOut {
        let mut edges = std::mem::take(&mut self.edges);
        let out = self.run_epoch(&mut edges, clock, probe, None);
        self.edges = edges;
        out
    }

    /// Runs traced epochs until `more(epochs_done)` says stop, with every
    /// data plane inside a [`TimedSite`].
    pub fn traced_epochs(
        &mut self,
        clock: Clock,
        tracer: &mut Tracer,
        layers: &mut Layers,
        mut more: impl FnMut(u64) -> bool,
        mut each: impl FnMut(&EpochOut),
    ) {
        let mut sites: Vec<TimedSite> = std::mem::take(&mut self.edges)
            .into_iter()
            .map(|e| TimedSite::new(e, clock))
            .collect();
        let mut done = 0;
        while more(done) {
            let out = self.run_epoch(&mut sites, clock, &mut Probe::Trace(tracer), Some(layers));
            each(&out);
            done += 1;
        }
        for s in &sites {
            layers.ingress_calls += s.ingress_calls;
            layers.egress_calls += s.egress_calls;
            layers.site_pkts += s.pkts;
            layers.site_s += s.busy_s;
        }
        self.edges = sites.into_iter().map(|s| s.inner).collect();
    }

    fn run_epoch<S: Site>(
        &mut self,
        edges: &mut [S],
        clock: Clock,
        probe: &mut Probe,
        mut layers: Option<&mut Layers>,
    ) -> EpochOut {
        let s = &self.scenario;
        let t0 = clock.now();
        let epoch = self.stack.simulator.current_epoch();
        if let Some(t) = probe.tracer() {
            t.enter("epoch", epoch);
        }

        probe.begin(Stage::Workloads, epoch);
        let trace = s.trace_for_epoch(&self.base, epoch);
        let plan = s.plan_for_epoch(&trace, epoch);
        probe.end(Stage::Workloads);

        probe.begin(Stage::Replay, epoch);
        let sim = &mut self.stack.simulator;
        let report = match (&mut self.engine, layers.as_deref_mut()) {
            (Some(eng), Some(l)) => {
                let (r, timing) = eng.run_epoch_burst_scenario_timed(
                    sim,
                    &trace,
                    &plan,
                    &s.impairments,
                    edges,
                    &|| clock.now(),
                );
                l.shard_timing(&timing);
                r
            }
            (Some(eng), None) => {
                eng.run_epoch_burst_scenario(sim, &trace, &plan, &s.impairments, edges)
            }
            (None, _) => {
                sim.run_epoch_burst_scenario(&trace, &plan, &s.impairments, &mut SiteArray(edges))
            }
        };
        probe.end(Stage::Replay);

        probe.begin(Stage::Collect, epoch);
        let ts_bit = (report.epoch & 1) as u8;
        let collected: Vec<CollectedGroup<FiveTuple>> = edges
            .iter_mut()
            .map(|e| e.plane().take_group(ts_bit))
            .collect();
        probe.end(Stage::Collect);

        let t_response = clock.now();
        probe.begin(Stage::Analyze, epoch);
        let controller = &mut self.stack.controller;
        let analysis = if layers.is_some() {
            controller
                .analyze_epoch_profiled(&collected, &mut self.decode_spans, &mut || clock.now())
        } else {
            controller.analyze_epoch(&collected)
        };
        probe.end(Stage::Analyze);

        probe.begin(Stage::Reconfigure, epoch);
        if let Some(t) = probe.tracer() {
            t.enter("reconfigure.control", epoch);
        }
        let staged = controller.reconfigure(&analysis);
        if let Some(t) = probe.tracer() {
            t.exit();
            t.enter("reconfigure.flip", epoch);
        }
        for e in edges.iter_mut() {
            e.plane().stage_runtime(staged);
            e.plane().flip(ts_bit);
        }
        if let Some(t) = probe.tracer() {
            t.exit();
        }
        probe.end(Stage::Reconfigure);
        let response_s = clock.now() - t_response;

        probe.begin(Stage::Localize, epoch);
        let loc = controller
            .localize_with_telemetry(&analysis, &report.queue_depth)
            .expect("the stack enables localization");
        probe.end(Stage::Localize);
        if let Some(t) = probe.tracer() {
            t.exit();
        }
        let wall_s = clock.now() - t0;

        // Scoring and layer readings: outside the timed epoch.
        if let Some(l) = layers {
            l.epochs += 1;
            l.after_analyze(&collected, &analysis, clock);
        }
        let truth: HashSet<FiveTuple> = report.lost.keys().copied().collect();
        let f1 = detection_score(analysis.loss_report.keys().copied(), &truth).f1;
        let (_, loc_top3) = localization_hits(&report, &loc);
        EpochOut {
            wall_s,
            response_s: Some(response_s),
            packets: report.total_sent(),
            digest: decision_digest(&analysis, &staged, &loc),
            decode_ok: analysis.switches_reporting > 0 && decode_healthy(&analysis),
            f1,
            loc_top3,
            state: Some(controller.state()),
        }
    }
}

/// Every decode the deployed partition asked for succeeded.
fn decode_healthy(a: &EpochAnalysis<FiveTuple>) -> bool {
    let p = a.runtime.partition;
    a.hh_decode_ok
        && (p.m_hl == 0 || a.hl_flowset.is_some())
        && (p.m_ll == 0 || a.ll_flowset.is_some())
}

fn fold_flow(d: &mut Digest, f: &FiveTuple) {
    d.u64(u64::from(f.src_ip) << 32 | u64::from(f.dst_ip));
    d.u64(u64::from(f.src_port) << 24 | u64::from(f.dst_port) << 8 | u64::from(f.proto));
}

fn fold_switch(d: &mut Digest, s: SwitchId) {
    d.bytes(s.role.label().as_bytes());
    d.u64(s.index as u64);
}

/// Digest of one stage-loop epoch's decisions: the sorted loss report, the
/// staged runtime, the decode verdicts and the localization top-3
/// (network-wide and per victim).
pub fn decision_digest(
    a: &EpochAnalysis<FiveTuple>,
    staged: &RuntimeConfig,
    loc: &Localization<FiveTuple>,
) -> u64 {
    let mut d = Digest::default();
    let mut losses: Vec<(FiveTuple, u64)> = a.loss_report.iter().map(|(f, &c)| (*f, c)).collect();
    losses.sort_unstable();
    d.u64(losses.len() as u64);
    for (f, c) in &losses {
        fold_flow(&mut d, f);
        d.u64(*c);
    }
    let p = staged.partition;
    for v in [
        p.m_hh as u64,
        p.m_hl as u64,
        p.m_ll as u64,
        staged.th,
        staged.tl,
    ] {
        d.u64(v);
    }
    d.u64(u64::from(staged.sample_threshold));
    for ok in [
        a.hh_decode_ok,
        a.hl_flowset.is_some(),
        a.ll_flowset.is_some(),
    ] {
        d.u64(u64::from(ok));
    }
    d.u64(a.switches_reporting as u64);
    for s in loc.top(3) {
        fold_switch(&mut d, s);
    }
    let mut victims: Vec<(&FiveTuple, &Vec<SwitchId>)> = loc.per_victim.iter().collect();
    victims.sort_unstable_by_key(|&(f, _)| *f);
    d.u64(victims.len() as u64);
    for (f, cands) in victims {
        fold_flow(&mut d, f);
        for &s in cands.iter().take(3) {
            fold_switch(&mut d, s);
        }
    }
    d.value()
}
