//! The two kinds of run: the untraced end-to-end run, and the traced run
//! that breaks an epoch down by layer. Both check the program's outputs.

use chamelemon::NetworkState;

use crate::digest::{self, Digest};
use crate::pipeline::{EpochOut, Layers, LoopSpec, Pipeline, RunPlan, Serve, Workload};
use crate::probe::{self, Clock, Probe, Tracer, STAGES};
use crate::stats::{mean, median, percentile};

/// Untraced epochs at the start of the traced run whose allocations are
/// counted per stage — a fixed count, so the tallies can repeat exactly.
pub const ALLOC_WINDOW: u64 = 20;

/// Traced epochs always run, whatever the time budget.
pub const MIN_TRACED: u64 = 20;

/// The per-stage allocation metric names, [`STAGES`] order.
pub const ALLOC_NAMES: [&str; 6] = [
    "alloc.workloads_per_epoch",
    "alloc.replay_per_epoch",
    "alloc.collect_per_epoch",
    "alloc.analyze_per_epoch",
    "alloc.reconfigure_per_epoch",
    "alloc.localize_per_epoch",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for (0 runs only the fixed epoch counts).
    pub seconds: f64,
    /// Replay worker threads of the loop workloads (default: theirs).
    pub workers: Option<usize>,
    /// Shrinks every size for the self-tests.
    pub small: bool,
}

impl Options {
    fn plan(&self) -> RunPlan {
        let plan = self.workload.plan();
        if self.small {
            RunPlan {
                warmup: plan.warmup.min(4),
                blocks: 2,
                block_window: 50,
            }
        } else {
            plan
        }
    }

    /// The seed of block `block`: 16 · seed + block.
    fn block_seed(&self, block: u64) -> u64 {
        self.seed.wrapping_mul(16).wrapping_add(block)
    }

    fn loop_spec(&self) -> Option<LoopSpec> {
        let mut spec = self.workload.loop_spec()?;
        if self.small {
            spec.flows /= 50;
            spec.paper_config = false;
        }
        if let Some(workers) = self.workers {
            spec.sharding.workers = workers;
        }
        Some(spec)
    }

    fn pipeline(&self, block: u64) -> Pipeline {
        let seed = self.block_seed(block);
        match self.loop_spec() {
            Some(spec) => Pipeline::new(&spec, self.workload.name(), seed),
            None => Pipeline::serve_stages(seed),
        }
    }
}

/// Everything a run reports: the outcome of its checks, its epoch counts
/// and its metrics (name, value), plus human-readable notes.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Measured epochs.
    pub attempted: u64,
    /// Measured epochs whose output failed a check.
    pub failed: u64,
    /// Reported metrics, in emission order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines printed before the result.
    pub notes: Vec<String>,
}

/// The workload under test, behind one `epoch` call.
enum Runner {
    Serve(Box<Serve>),
    Loop(Box<Pipeline>),
}

impl Runner {
    fn build(opts: &Options, block: u64) -> Self {
        match opts.workload {
            Workload::ServeCongested => Runner::Serve(Box::new(Serve::new(opts.block_seed(block)))),
            _ => Runner::Loop(Box::new(opts.pipeline(block))),
        }
    }

    fn epoch(&mut self, clock: Clock) -> EpochOut {
        match self {
            Runner::Serve(s) => s.epoch(clock),
            Runner::Loop(p) => p.epoch(clock, &mut Probe::Off),
        }
    }
}

/// Share of a block's window a loop workload must spend in its expected
/// network state. The controller may leave it for an epoch on its own
/// estimates; a workload that mostly runs elsewhere no longer measures
/// what it was chosen for.
const MIN_IN_STATE: f64 = 0.9;

/// The checks made on the fixed window of every block, and the
/// deterministic outputs gathered over those windows.
struct Checks {
    expect: Option<NetworkState>,
    window: u64,
    seen: u64,
    /// Window epochs of the open block outside the expected state.
    off_state: u64,
    digest: Digest,
    failed: u64,
    decode_fails: u64,
    epochs: u64,
    f1: Vec<f64>,
    top3: Vec<f64>,
    /// Index into `f1`/`top3` where the open block's window starts.
    block_start: usize,
    /// Mean F1 and top-3 hit rate of every closed block.
    block_f1: Vec<f64>,
    block_top3: Vec<f64>,
}

impl Checks {
    fn new(opts: &Options) -> Self {
        Checks {
            expect: opts.loop_spec().map(|s| s.expect),
            window: 0,
            seen: 0,
            off_state: 0,
            digest: Digest::default(),
            failed: 0,
            decode_fails: 0,
            epochs: 0,
            f1: Vec::new(),
            top3: Vec::new(),
            block_start: 0,
            block_f1: Vec::new(),
            block_top3: Vec::new(),
        }
    }

    /// Opens the window of a new block.
    fn start(&mut self, window: u64) {
        self.window = window;
        self.seen = 0;
        self.off_state = 0;
        self.digest = Digest::default();
        self.block_start = self.f1.len();
    }

    fn observe(&mut self, out: &EpochOut) {
        if self.seen >= self.window {
            return;
        }
        self.seen += 1;
        self.epochs += 1;
        self.digest.u64(out.digest);
        self.decode_fails += u64::from(!out.decode_ok);
        self.f1.push(out.f1);
        self.top3.push(out.loc_top3);
        if let (Some(want), Some(got)) = (self.expect, out.state) {
            self.off_state += u64::from(want != got);
        }
    }

    /// Closes block `block`'s window: it must be full, it must keep to the
    /// expected network state, and for the default seed its digest must
    /// match the pinned one.
    fn finish(&mut self, opts: &Options, block: u64, notes: &mut Vec<String>) {
        let d = self.digest.value();
        let f1 = mean(&self.f1[self.block_start..]);
        let top3 = mean(&self.top3[self.block_start..]);
        self.block_f1.push(f1);
        self.block_top3.push(top3);
        notes.push(format!(
            "block {block}: {} window epochs, f1 {f1:.4}, top3 {top3:.4}, digest {d:#018x}",
            self.seen
        ));
        if self.seen < self.window {
            notes.push(format!(
                "FAIL: block {block} window cut at {} of {}",
                self.seen, self.window
            ));
            self.failed += self.window - self.seen;
        }
        if let Some(want) = self.expect.filter(|_| self.off_state > 0) {
            let in_state = 1.0 - div(self.off_state as f64, self.seen as f64);
            let verdict = if in_state < MIN_IN_STATE {
                "FAIL: "
            } else {
                ""
            };
            notes.push(format!(
                "{verdict}block {block}: {} of {} window epochs outside {want:?}",
                self.off_state, self.seen
            ));
            if in_state < MIN_IN_STATE {
                self.failed += self.off_state;
            }
        }
        if opts.seed != digest::DEFAULT_SEED || opts.small {
            return;
        }
        match digest::golden(opts.workload.name(), block) {
            Some(g) if g == d => {
                notes.push(format!("block {block}: digest matches the pinned value"))
            }
            Some(g) => {
                notes.push(format!(
                    "FAIL: block {block} digest {d:#018x} != pinned {g:#018x}"
                ));
                self.failed += self.seen;
            }
            None => notes.push(format!("block {block}: no pinned digest")),
        }
    }

    /// Window epochs that were blind or decoded unhealthily, as a share.
    fn decode_fail_frac(&self) -> f64 {
        div(self.decode_fails as f64, self.epochs as f64)
    }
}

fn ms(s: f64) -> f64 {
    s * 1e3
}

fn div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Builds block `block` and runs its warm-up; returns the runner, the
/// set-up seconds and the warm-up digest.
fn set_up(opts: &Options, block: u64, clock: Clock) -> (Runner, f64, u64) {
    let t0 = clock.now();
    let mut r = Runner::build(opts, block);
    let mut d = Digest::default();
    for _ in 0..opts.plan().warmup {
        d.u64(r.epoch(clock).digest);
    }
    (r, clock.now() - t0, d.value())
}

/// The process heap as the benchmark's allocator sees it.
#[derive(Debug, Clone, Copy)]
pub struct Heap {
    /// Peak live bytes since the last restart.
    pub peak: fn() -> u64,
    /// Restarts the peak at the bytes live now.
    pub restart_peak: fn(),
}

/// The untraced run. Every block is set up (build + base trace + warm-up),
/// then measured until its window is full and its share of `seconds` has
/// passed. Block 0 is set up twice and the two warm-ups must agree; block 0
/// of the default seed is replayed and checked against its pinned digest.
pub fn end_to_end(opts: &Options, clock: Clock, heap: Heap) -> Outcome {
    let plan = opts.plan();
    let share = opts.seconds / plan.blocks as f64;
    let mut notes = Vec::new();
    let mut checks = Checks::new(opts);
    let mut setups = Vec::new();
    let mut outs: Vec<EpochOut> = Vec::new();

    let (first, setup, warm) = set_up(opts, 0, clock);
    drop(first);
    setups.push(setup);
    let mut warm_ok = true;
    for block in 0..plan.blocks {
        let (mut runner, setup, d) = set_up(opts, block, clock);
        setups.push(setup);
        if block == 0 && d != warm {
            notes.push(format!(
                "FAIL: block 0 warm-up digests differ: {warm:#x} vs {d:#x}"
            ));
            warm_ok = false;
        }
        checks.start(plan.block_window);
        let t0 = clock.now();
        let mut n = 0;
        while n < plan.block_window || clock.now() - t0 < share {
            let out = runner.epoch(clock);
            checks.observe(&out);
            outs.push(out);
            n += 1;
        }
        checks.finish(opts, block, &mut notes);
    }

    // Every run also replays block 0 of the default seed and checks it
    // against the pinned digest, whichever seed it measured.
    if opts.seed != digest::DEFAULT_SEED && !opts.small {
        let reference = Options {
            seed: digest::DEFAULT_SEED,
            ..opts.clone()
        };
        let (mut runner, _, _) = set_up(&reference, 0, clock);
        let mut check = Checks::new(&reference);
        check.start(plan.block_window);
        for _ in 0..plan.block_window {
            check.observe(&runner.epoch(clock));
        }
        check.finish(&reference, 0, &mut notes);
        if check.failed > 0 {
            notes.push(format!(
                "FAIL: default-seed reference window failed {} epochs",
                check.failed
            ));
            checks.failed += check.failed;
        }
    }

    let mut wall: Vec<f64> = outs.iter().map(|o| o.wall_s).collect();
    wall.sort_by(f64::total_cmp);
    let n = wall.len();
    let pct = |p: f64| percentile(&wall, p).map(ms);
    let packets: u64 = outs.iter().map(|o| o.packets).sum();
    let busy: f64 = wall.iter().sum();
    let mut metrics = vec![
        (
            "epoch_ms_p50",
            pct(0.5).expect("every run measures at least 20 epochs"),
        ),
        ("setup_s", median(&setups).expect("set-up ran")),
        (
            "loss_f1_block_median",
            median(&checks.block_f1).expect("blocks ran"),
        ),
        (
            "loc_top3_block_median",
            median(&checks.block_top3).expect("blocks ran"),
        ),
    ];
    notes.push(format!("measured epochs: {n} in {} blocks", plan.blocks));
    // Packets per epoch are a property of the seed's flow draw (600
    // heavy-tailed flows swing it by ±20% even over 8 blocks), so the
    // throughput is printed, not gated.
    notes.push(format!(
        "pipeline_mpps {:.4} Mpkt/s ({packets} packets)",
        div(packets as f64, busy) / 1e6
    ));
    notes.push(format!("set-ups (s): {setups:.4?}"));
    if let Some(rss) = probe::peak_rss_mb() {
        notes.push(format!("peak_rss_mb {rss:.2} MiB (VmHWM)"));
    }
    // The tails swing by more than any bound this host allows across
    // runs, so they are printed with their sample counts, not gated.
    for (name, p) in [("epoch_ms_p90", 0.9), ("epoch_ms_p99", 0.99)] {
        match pct(p) {
            Some(v) => notes.push(format!("{name} {v:.4} ms ({n} samples)")),
            None => notes.push(format!(
                "{name} not reported: {n} samples leave fewer than 10 beyond it"
            )),
        }
    }
    let mut resp: Vec<f64> = outs.iter().filter_map(|o| o.response_s).collect();
    resp.sort_by(f64::total_cmp);
    if let Some(r) = percentile(&resp, 0.5) {
        notes.push(format!(
            "response_ms_p50 {:.4} ms ({} samples)",
            ms(r),
            resp.len()
        ));
    }
    notes.push(format!(
        "loss_f1_mean {:.4}, loc_top3_mean {:.4} over all window epochs",
        mean(&checks.f1),
        mean(&checks.top3)
    ));
    notes.push(format!(
        "decode_fail_frac {:.4} ({} of {} window epochs)",
        checks.decode_fail_frac(),
        checks.decode_fails,
        checks.epochs
    ));
    if checks.failed > 0 {
        notes.push(format!(
            "FAIL: {} window epochs failed a check",
            checks.failed
        ));
    }

    // The peak heap of one block's life: block 0 once more, set up and
    // run through its window, after the per-epoch samples this run kept
    // are freed — so neither they nor the run's length count.
    drop((outs, wall, resp));
    (heap.restart_peak)();
    let (mut runner, _, _) = set_up(opts, 0, clock);
    for _ in 0..plan.block_window {
        runner.epoch(clock);
    }
    drop(runner);
    metrics.push(("peak_heap_mb", (heap.peak)() as f64 / (1024.0 * 1024.0)));

    Outcome {
        correct: warm_ok && checks.failed == 0,
        attempted: n as u64,
        failed: checks.failed,
        metrics,
        notes,
    }
}

/// The traced run, on block 0 only. Set up once; run untraced epochs (the
/// first [`ALLOC_WINDOW`] with per-stage allocation counts), then traced
/// ones with spans, timed data-plane sites and decode spans. For the
/// service, the untraced `step()` loop runs first and the stage loop then
/// replays the same scenario, so `serve.self_ms` shows what `step()` adds.
pub fn traced(
    opts: &Options,
    clock: Clock,
    alloc_counter: fn() -> u64,
    spans_out: Option<&str>,
) -> Outcome {
    let plan = opts.plan();
    let mut notes = Vec::new();
    let serve = opts.workload == Workload::ServeCongested;
    let share = opts.seconds / if serve { 3.0 } else { 2.0 };
    let mut checks = Checks::new(opts);
    let mut attempted = 0;

    let mut step_mean = None;
    if serve {
        let (mut s, _, _) = set_up(opts, 0, clock);
        checks.start(plan.block_window);
        let mut walls = Vec::new();
        let t0 = clock.now();
        while (walls.len() as u64) < plan.block_window || clock.now() - t0 < share {
            let out = s.epoch(clock);
            checks.observe(&out);
            walls.push(out.wall_s);
        }
        checks.finish(opts, 0, &mut notes);
        attempted += walls.len() as u64;
        step_mean = Some(mean(&walls));
    }

    let mut p = opts.pipeline(0);
    for _ in 0..plan.warmup {
        p.epoch(clock, &mut Probe::Off);
    }
    // The service's stage loop runs without control-channel faults, so
    // its decisions differ from `step()`'s and have no pinned digest.
    if !serve {
        checks.start(plan.block_window);
    }

    let mut per_stage = [0u64; 6];
    let mut untraced = Vec::new();
    let t0 = clock.now();
    while (untraced.len() as u64) < ALLOC_WINDOW || clock.now() - t0 < share {
        let out = if (untraced.len() as u64) < ALLOC_WINDOW {
            let mut probe = Probe::Alloc {
                counter: alloc_counter,
                per_stage: &mut per_stage,
                mark: 0,
            };
            p.epoch(clock, &mut probe)
        } else {
            p.epoch(clock, &mut Probe::Off)
        };
        checks.observe(&out);
        untraced.push(out.wall_s);
    }

    let mut tracer = Tracer::new(clock, 4096);
    let mut layers = Layers::default();
    let mut traced_walls = Vec::new();
    let before = untraced.len() as u64;
    let t0 = clock.now();
    p.traced_epochs(
        clock,
        &mut tracer,
        &mut layers,
        |done| done < MIN_TRACED || before + done < plan.block_window || clock.now() - t0 < share,
        |out| {
            checks.observe(out);
            traced_walls.push(out.wall_s);
        },
    );
    if !serve {
        checks.finish(opts, 0, &mut notes);
    }
    attempted += before + traced_walls.len() as u64;
    if checks.failed > 0 {
        notes.push(format!(
            "FAIL: {} window epochs failed a check",
            checks.failed
        ));
    }

    if let Some(path) = spans_out {
        let dir = std::path::Path::new(path)
            .parent()
            .unwrap_or(std::path::Path::new("."));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, tracer.to_jsonl())) {
            Ok(()) => notes.push(format!("{} spans written to {path}", tracer.spans().len())),
            Err(e) => notes.push(format!("spans not written to {path}: {e}")),
        }
    }

    let e = layers.epochs.max(1) as f64;
    let span_ms = |name: &str| ms(tracer.totals(name).total_s) / e;
    let sharded = layers.sharded_epochs.max(1) as f64;
    let decode_s: f64 = p
        .decode_spans
        .flatten()
        .iter()
        .filter(|(path, _, _)| {
            path.strip_prefix("analyze/decode/")
                .is_some_and(|leaf| !matches!(leaf, "sparse" | "loaded"))
        })
        .map(|&(_, _, t)| t)
        .sum();
    let decode_count = |leaf: &str| {
        p.decode_spans
            .get(&["analyze", "decode", leaf])
            .map_or(0, |(c, _)| c) as f64
            / e
    };
    let epoch = tracer.totals("epoch");
    let traced_mean = mean(&traced_walls);
    let untraced_mean = mean(&untraced);
    let stages_mean = div(epoch.total_s - epoch.self_s, e);
    let self_ms = match step_mean {
        Some(step) => ms(step - stages_mean),
        None => ms(epoch.self_s / e),
    };
    let analyze_ms = span_ms("analyze");
    let mrac_ms = ms(layers.mrac_s) / e;
    let decode_ms = ms(decode_s) / e;
    let coverage = tracer.root_coverage();
    let calls = (layers.ingress_calls + layers.egress_calls) as f64;
    let mut metrics = vec![
        ("workloads.gen_ms", span_ms("workloads")),
        ("netsim.replay_ms", span_ms("replay")),
        ("netsim.prologue_ms", ms(layers.prologue_s) / sharded),
        ("netsim.phase_a_max_ms", ms(layers.phase_a_max_s) / sharded),
        ("netsim.phase_b_max_ms", ms(layers.phase_b_max_s) / sharded),
        ("netsim.merge_ms", ms(layers.merge_s) / sharded),
        ("netsim.crit_path_ms", ms(layers.crit_s) / sharded),
        ("netsim.shard_skew", layers.skew / sharded),
        ("dataplane.ingress_calls", layers.ingress_calls as f64 / e),
        ("dataplane.egress_calls", layers.egress_calls as f64 / e),
        (
            "dataplane.pkts_per_call",
            div(layers.site_pkts as f64, calls),
        ),
        ("dataplane.site_ms", ms(layers.site_s) / e),
        ("dataplane.collect_ms", span_ms("collect")),
        ("dataplane.flip_ms", span_ms("reconfigure.flip")),
        ("control.analyze_ms", analyze_ms),
        ("control.reconfigure_ms", span_ms("reconfigure.control")),
        ("control.analyze_self_ms", analyze_ms - decode_ms - mrac_ms),
        ("control.decode_fail_frac", checks.decode_fail_frac()),
        ("tower.mrac_ms", mrac_ms),
        ("tower.hist_bins", layers.hist_bins as f64 / e),
        ("tower.max_counter", layers.max_counter as f64),
        (
            "tower.useful_bin_ratio",
            div(layers.useful_bins as f64, layers.hist_bins as f64),
        ),
        ("fermat.decode_ms", decode_ms),
        ("fermat.decodes_loaded", decode_count("loaded")),
        ("fermat.decodes_sparse", decode_count("sparse")),
        ("fermat.decoded_flows", layers.decoded_flows as f64 / e),
        (
            "fermat.decode_ok_ratio",
            div(layers.decodes_ok as f64, layers.decodes_attempted as f64),
        ),
        ("localize.ms", span_ms("localize")),
        ("serve.self_ms", self_ms),
    ];
    for (i, stage) in STAGES.iter().enumerate() {
        metrics.push((ALLOC_NAMES[i], per_stage[i] as f64 / ALLOC_WINDOW as f64));
        notes.push(format!(
            "alloc {stage}: {} in {ALLOC_WINDOW} epochs",
            per_stage[i]
        ));
    }
    metrics.push((
        "trace.overhead_pct",
        100.0 * div(traced_mean - untraced_mean, untraced_mean),
    ));
    metrics.push(("trace.epoch_coverage", coverage));

    notes.push(format!(
        "traced epochs: {}, untraced epochs: {before}, traced mean {:.4} ms, untraced mean {:.4} ms",
        traced_walls.len(),
        ms(traced_mean),
        ms(untraced_mean)
    ));
    if let Some(step) = step_mean {
        notes.push(format!(
            "serve: step() mean {:.4} ms, traced stages {:.4} ms; serve.self_ms includes tracing overhead",
            ms(step),
            ms(stages_mean)
        ));
    }
    if coverage < 0.95 {
        notes.push(format!(
            "UNATTRIBUTED: stages cover only {:.1}% of the epoch",
            coverage * 100.0
        ));
    }
    for name in [
        "epoch",
        "workloads",
        "replay",
        "collect",
        "analyze",
        "reconfigure",
        "localize",
    ] {
        let t = tracer.totals(name);
        notes.push(format!(
            "span {name:<12} count {:>6} mean {:>10.4} ms self {:>10.4} ms",
            t.count,
            ms(t.total_s) / e,
            ms(t.self_s) / e
        ));
    }
    Outcome {
        correct: checks.failed == 0,
        attempted,
        failed: checks.failed,
        metrics,
        notes,
    }
}
