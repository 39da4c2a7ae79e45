//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-congested|ill-20k> --seed <n>
//!           --seconds <s> --trace <0|1> [--workers <n>] [--spans-out <path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! is a separate run that reports the per-layer breakdown. Either way the
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `README.md` next to this crate for the workloads and metrics.

mod bench;
mod digest;
mod pipeline;
mod probe;
mod stats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

use bench::{Heap, Options, Outcome};
use pipeline::{Workload, WORKLOADS};
use probe::Clock;

/// Counts every allocation in the process, and tracks live and peak heap
/// bytes, so the traced run can attribute allocations to pipeline stages
/// and every run can report its peak heap. The counters are statistics
/// that publish no other data, hence `Relaxed`.
struct CountingAlloc;

/// A counter on a cache line of its own, so threads bumping one counter
/// do not contend with readers of another.
#[repr(align(128))]
struct Padded(AtomicU64);

static ALLOCATIONS: Padded = Padded(AtomicU64::new(0));
static LIVE_BYTES: Padded = Padded(AtomicU64::new(0));
static PEAK_BYTES: Padded = Padded(AtomicU64::new(0));

fn grow(bytes: usize) {
    let live = LIVE_BYTES.0.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    // A plain load first: the peak rarely moves, and a read-shared line
    // costs far less than a contended read-modify-write.
    if live > PEAK_BYTES.0.load(Ordering::Relaxed) {
        PEAK_BYTES.0.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    LIVE_BYTES.0.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// chm-lint: allow(unsafe-block, "counting-allocator shim: implementing GlobalAlloc is inherently unsafe and this type exists only in this benchmark binary")
unsafe impl GlobalAlloc for CountingAlloc {
    // chm-lint: allow(unsafe-block, "counts, then delegates to System.alloc with the caller's layout unchanged")
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.0.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is passed through to `System` unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }
    // chm-lint: allow(unsafe-block, "pure delegation to System.dealloc; pointer and layout come straight from the caller")
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    // chm-lint: allow(unsafe-block, "counts, then delegates to System.realloc with the caller's arguments unchanged")
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.0.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract and
        // `ptr` came from `System` through this allocator.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.0.load(Ordering::Relaxed)
}

fn peak_heap_bytes() -> u64 {
    PEAK_BYTES.0.load(Ordering::Relaxed)
}

fn restart_peak_heap() {
    PEAK_BYTES
        .0
        .store(LIVE_BYTES.0.load(Ordering::Relaxed), Ordering::Relaxed);
}

const HEAP: Heap = Heap {
    peak: peak_heap_bytes,
    restart_peak: restart_peak_heap,
};

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of `--trace 0`, in `BENCHMARK.json` order.
pub const END_TO_END: &[MetricDef] = &[
    m("epoch_ms_p50", "ms"),
    m("setup_s", "s"),
    m("peak_heap_mb", "MiB"),
    m("loss_f1_block_median", "ratio"),
    m("loc_top3_block_median", "ratio"),
];

/// Metrics of `--trace 1`, in `BENCHMARK.json` order.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.gen_ms", "ms"),
    m("netsim.replay_ms", "ms"),
    m("netsim.prologue_ms", "ms"),
    m("netsim.phase_a_max_ms", "ms"),
    m("netsim.phase_b_max_ms", "ms"),
    m("netsim.merge_ms", "ms"),
    m("netsim.crit_path_ms", "ms"),
    m("netsim.shard_skew", "ratio"),
    m("dataplane.ingress_calls", "count"),
    m("dataplane.egress_calls", "count"),
    m("dataplane.pkts_per_call", "pkt/call"),
    m("dataplane.site_ms", "ms"),
    m("dataplane.collect_ms", "ms"),
    m("dataplane.flip_ms", "ms"),
    m("control.analyze_ms", "ms"),
    m("control.reconfigure_ms", "ms"),
    m("control.analyze_self_ms", "ms"),
    m("control.decode_fail_frac", "ratio"),
    m("tower.mrac_ms", "ms"),
    m("tower.hist_bins", "count"),
    m("tower.max_counter", "count"),
    m("tower.useful_bin_ratio", "ratio"),
    m("fermat.decode_ms", "ms"),
    m("fermat.decodes_loaded", "count"),
    m("fermat.decodes_sparse", "count"),
    m("fermat.decoded_flows", "count"),
    m("fermat.decode_ok_ratio", "ratio"),
    m("localize.ms", "ms"),
    m("serve.self_ms", "ms"),
    m("alloc.workloads_per_epoch", "count"),
    m("alloc.replay_per_epoch", "count"),
    m("alloc.collect_per_epoch", "count"),
    m("alloc.analyze_per_epoch", "count"),
    m("alloc.reconfigure_per_epoch", "count"),
    m("alloc.localize_per_epoch", "count"),
    m("trace.overhead_pct", "%"),
    m("trace.epoch_coverage", "ratio"),
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    opts: Options,
    trace: bool,
    spans_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = digest::DEFAULT_SEED;
    let mut seconds: u64 = 10;
    let mut trace = false;
    let mut workers = None;
    let mut spans_out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--workers" => {
                let w = number(value()?)?;
                if w == 0 || w > 64 {
                    return Err(format!("--workers must be 1..=64, not {w}"));
                }
                workers = Some(w as usize);
            }
            "--spans-out" => spans_out = Some(value()?.clone()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seconds > 600 {
        return Err(format!("--seconds must be at most 600, not {seconds}"));
    }
    let workload = workload.ok_or("--workload is required")?;
    let opts = Options {
        workload,
        seed,
        seconds: seconds as f64,
        workers,
        small: false,
    };
    Ok(Args {
        opts,
        trace,
        spans_out,
    })
}

/// The result line: every metric of `defs`, in order, with its unit.
fn result_json(out: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = out
                .metrics
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            assert!(stats::metric_name_ok(d.name), "bad metric name {}", d.name);
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--workers N] [--spans-out PATH]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let o = &args.opts;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} workers {:?}, {} cpus available",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(args.trace),
        o.workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let clock = Clock::wall();
    let (out, defs) = if args.trace {
        let default_path = format!(
            ".perfbench_out/{}-seed{}.spans.jsonl",
            o.workload.name(),
            o.seed
        );
        let path = args.spans_out.clone().unwrap_or(default_path);
        (bench::traced(o, clock, allocations, Some(&path)), PER_LAYER)
    } else {
        (bench::end_to_end(o, clock, HEAP), END_TO_END)
    };
    for line in &out.notes {
        println!("  {line}");
    }
    for (name, v) in &out.metrics {
        let unit = defs
            .iter()
            .find(|d| d.name == *name)
            .map_or("?", |d| d.unit);
        println!("  {name:<30} {v:>14.6} {unit}");
    }
    println!("{}", result_json(&out, defs));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_HEAP: Heap = Heap {
        peak: || 0,
        restart_peak: || {},
    };

    fn small(workload: Workload, workers: Option<usize>) -> Options {
        Options {
            workload,
            seed: 3,
            seconds: 0.0,
            workers,
            small: true,
        }
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::metric_name_ok(d.name), "bad metric name {}", d.name);
            assert!(seen.insert(d.name), "metric {} listed twice", d.name);
        }
    }

    /// The metric lists here and in `BENCHMARK.json` agree, in order.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(section("end_to_end"), names(END_TO_END));
        assert_eq!(section("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn every_metric_is_emitted() {
        for w in WORKLOADS {
            let opts = small(w, None);
            let e2e = bench::end_to_end(&opts, Clock::Zero, NO_HEAP);
            result_json(&e2e, END_TO_END);
            assert_eq!(e2e.metrics.len(), END_TO_END.len());
            let tr = bench::traced(&opts, Clock::Zero, || 0, None);
            result_json(&tr, PER_LAYER);
            assert_eq!(tr.metrics.len(), PER_LAYER.len());
        }
    }

    /// Under the zero clock every per-layer value is a count, and counts
    /// do not depend on how many threads replay the shards.
    #[test]
    fn zero_clock_counts_match_at_one_and_two_workers() {
        let one = bench::traced(&small(Workload::Ill20k, Some(1)), Clock::Zero, || 0, None);
        let two = bench::traced(&small(Workload::Ill20k, Some(2)), Clock::Zero, || 0, None);
        assert_eq!(one.metrics, two.metrics);
        assert_eq!(one.attempted, two.attempted);
        let calls = one
            .metrics
            .iter()
            .find(|(n, _)| *n == "dataplane.ingress_calls");
        assert!(calls.is_some_and(|&(_, v)| v > 0.0), "sites were called");
        let digest_lines = |o: &Outcome| {
            o.notes
                .iter()
                .filter(|l| l.contains("digest"))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(digest_lines(&one), digest_lines(&two));
    }

    #[test]
    fn end_to_end_repeats_its_decisions() {
        let opts = small(Workload::Ill20k, None);
        let a = bench::end_to_end(&opts, Clock::Zero, NO_HEAP);
        let b = bench::end_to_end(&opts, Clock::Zero, NO_HEAP);
        let keep = |o: &Outcome| {
            o.metrics
                .iter()
                .filter(|(n, _)| matches!(*n, "loss_f1_block_median" | "loc_top3_block_median"))
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(keep(&a), keep(&b));
        let digest = |o: &Outcome| o.notes.iter().find(|l| l.contains("digest")).cloned();
        assert!(digest(&a).is_some());
        assert_eq!(digest(&a), digest(&b));
        assert!(!a.notes.iter().any(|l| l.contains("warm-up digests differ")));
    }

    #[test]
    fn arguments() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload ill-20k --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(a.opts.workload, Workload::Ill20k);
        assert_eq!((a.opts.seed, a.opts.seconds, a.trace), (7, 3.0, true));
        for bad in [
            "",
            "--workload nope",
            "--workload ill-20k --trace 2",
            "--workload ill-20k --seed x",
            "--workload ill-20k --seed",
            "--workload ill-20k --workers 0",
            "--workload ill-20k --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
