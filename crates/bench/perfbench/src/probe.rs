//! Measurement instruments that live on the benchmark side of every layer
//! boundary: the clock, the span recorder, the per-stage allocation probe
//! and the [`TimedSite`] wrapper around an edge data plane. Nothing here
//! reaches inside the crates; every reading is taken around a public call.

use std::fmt::Write as _;
use std::time::Instant;

use chamelemon::EdgeDataPlane;
use chm_common::FiveTuple;
use chm_netsim::EdgeSite;

/// Monotonic seconds since the clock was made, or always 0 (the zero
/// clock of the deterministic self-tests).
#[derive(Debug, Clone, Copy)]
pub enum Clock {
    /// Real time from `Instant`.
    Wall(Instant),
    /// Every reading is 0.0 (the self-tests' clock).
    #[cfg_attr(not(test), allow(dead_code))]
    Zero,
}

impl Clock {
    /// A wall clock starting now.
    #[allow(clippy::disallowed_methods)] // the benchmark's one real clock
    pub fn wall() -> Self {
        Clock::Wall(Instant::now())
    }

    /// Seconds since the clock was made.
    #[inline]
    pub fn now(&self) -> f64 {
        match self {
            Clock::Wall(t0) => t0.elapsed().as_secs_f64(),
            Clock::Zero => 0.0,
        }
    }
}

/// A pipeline stage, in epoch order; indexes [`STAGES`].
#[derive(Debug, Clone, Copy)]
pub enum Stage {
    /// Generating the epoch's trace and loss plan.
    Workloads,
    /// Replaying it through the fabric and the data planes.
    Replay,
    /// Taking the ended sketch groups off the edges.
    Collect,
    /// The controller's analysis.
    Analyze,
    /// Reconfiguring, staging and flipping.
    Reconfigure,
    /// Localization.
    Localize,
}

/// Span and allocation-tally names of the [`Stage`]s.
pub const STAGES: [&str; 6] = [
    "workloads",
    "replay",
    "collect",
    "analyze",
    "reconfigure",
    "localize",
];

/// One recorded span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone)]
pub struct Span {
    /// Stage name.
    pub name: &'static str,
    /// Start, clock seconds.
    pub start: f64,
    /// End, clock seconds.
    pub end: f64,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The epoch the span belongs to.
    pub epoch: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-name totals over a recording: span count, summed duration and
/// summed self time (duration minus the durations of direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration, seconds.
    pub total_s: f64,
    /// Σ self time, seconds.
    pub self_s: f64,
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out whole, so recording costs one clock read and one push.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder reading `clock`, with room for `capacity` spans.
    pub fn new(clock: Clock, capacity: usize) -> Self {
        Tracer {
            clock,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: u64) {
        let parent = self.open.last().copied();
        let now = self.clock.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            epoch,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.clock.now();
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur();
            }
        }
        own
    }

    /// Totals for every span named `name`.
    pub fn totals(&self, name: &str) -> SpanTotals {
        let own = self.self_times();
        let mut t = SpanTotals::default();
        for (s, &o) in self.spans.iter().zip(&own) {
            if s.name == name {
                t.count += 1;
                t.total_s += s.dur();
                t.self_s += o;
            }
        }
        t
    }

    /// Share of the root spans' time that their children account for:
    /// Σ child durations / Σ root durations. 1.0 when nothing was timed.
    pub fn root_coverage(&self) -> f64 {
        let mut root = 0.0;
        let mut covered = 0.0;
        for s in &self.spans {
            match s.parent {
                None => root += s.dur(),
                Some(p) if self.spans[p].parent.is_none() => covered += s.dur(),
                Some(_) => {}
            }
        }
        if root > 0.0 {
            covered / root
        } else {
            1.0
        }
    }

    /// The recording as JSON lines: name, start and end (µs), parent
    /// index, epoch id and self time (µs).
    pub fn to_jsonl(&self) -> String {
        let own = self.self_times();
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, o)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent},\"epoch\":{},\"self_us\":{:.3}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                s.epoch,
                o * 1e6,
            );
        }
        out
    }
}

/// Where a stage boundary reports to: nowhere, a per-stage allocation
/// tally, or the span recorder.
pub enum Probe<'a> {
    /// Untraced: boundaries cost nothing.
    Off,
    /// Counts allocations per stage from the process-wide counter.
    Alloc {
        /// Reads the allocation counter.
        counter: fn() -> u64,
        /// Allocations per stage, [`STAGES`] order.
        per_stage: &'a mut [u64; 6],
        /// Counter reading at the open boundary.
        mark: u64,
    },
    /// Records spans.
    Trace(&'a mut Tracer),
}

impl Probe<'_> {
    /// Opens `stage`.
    #[inline]
    pub fn begin(&mut self, stage: Stage, epoch: u64) {
        match self {
            Probe::Off => {}
            Probe::Alloc { counter, mark, .. } => *mark = counter(),
            Probe::Trace(t) => t.enter(STAGES[stage as usize], epoch),
        }
    }

    /// Closes `stage`.
    #[inline]
    pub fn end(&mut self, stage: Stage) {
        match self {
            Probe::Off => {}
            Probe::Alloc {
                counter,
                per_stage,
                mark,
            } => per_stage[stage as usize] += counter() - *mark,
            Probe::Trace(t) => t.exit(),
        }
    }

    /// The span recorder, when tracing.
    pub fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            Probe::Trace(t) => Some(t),
            _ => None,
        }
    }
}

/// An edge data plane as the benchmark drives it: the plane itself, or
/// the plane inside a [`TimedSite`].
pub trait Site: EdgeSite<FiveTuple> {
    /// The wrapped data plane (for collection and reconfiguration).
    fn plane(&mut self) -> &mut EdgeDataPlane<FiveTuple>;
}

impl Site for EdgeDataPlane<FiveTuple> {
    fn plane(&mut self) -> &mut EdgeDataPlane<FiveTuple> {
        self
    }
}

/// Counts and times every replay call into one edge data plane. Each
/// shard owns its sites, so the tallies need no synchronisation.
#[derive(Debug)]
pub struct TimedSite {
    /// The wrapped plane.
    pub inner: EdgeDataPlane<FiveTuple>,
    clock: Clock,
    /// Ingress calls (per-packet or burst).
    pub ingress_calls: u64,
    /// Egress calls (per-packet or burst).
    pub egress_calls: u64,
    /// Packets handed over by all calls.
    pub pkts: u64,
    /// Seconds spent inside the plane.
    pub busy_s: f64,
}

impl TimedSite {
    /// Wraps `inner`, timing with `clock`.
    pub fn new(inner: EdgeDataPlane<FiveTuple>, clock: Clock) -> Self {
        TimedSite {
            inner,
            clock,
            ingress_calls: 0,
            egress_calls: 0,
            pkts: 0,
            busy_s: 0.0,
        }
    }
}

impl EdgeSite<FiveTuple> for TimedSite {
    fn site_ingress(&mut self, f: &FiveTuple, ts_bit: u8) -> u8 {
        let t0 = self.clock.now();
        let tag = self.inner.site_ingress(f, ts_bit);
        self.busy_s += self.clock.now() - t0;
        self.ingress_calls += 1;
        self.pkts += 1;
        tag
    }

    fn site_egress(&mut self, f: &FiveTuple, ts_bit: u8, tag: u8) {
        let t0 = self.clock.now();
        self.inner.site_egress(f, ts_bit, tag);
        self.busy_s += self.clock.now() - t0;
        self.egress_calls += 1;
        self.pkts += 1;
    }

    fn site_ingress_burst(&mut self, f: &FiveTuple, ts_bit: u8, pkts: u64) -> [(u8, u64); 3] {
        let t0 = self.clock.now();
        let runs = self.inner.site_ingress_burst(f, ts_bit, pkts);
        self.busy_s += self.clock.now() - t0;
        self.ingress_calls += 1;
        self.pkts += pkts;
        runs
    }

    fn site_egress_burst(&mut self, f: &FiveTuple, ts_bit: u8, tag: u8, delivered: u64) {
        let t0 = self.clock.now();
        self.inner.site_egress_burst(f, ts_bit, tag, delivered);
        self.busy_s += self.clock.now() - t0;
        self.egress_calls += 1;
        self.pkts += delivered;
    }
}

impl Site for TimedSite {
    fn plane(&mut self) -> &mut EdgeDataPlane<FiveTuple> {
        &mut self.inner
    }
}

/// Peak resident set (VmHWM) of this process in MiB, from
/// `/proc/self/status`; `None` where that file is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_and_coverage() {
        let mut t = Tracer::new(Clock::wall(), 8);
        t.enter("epoch", 0);
        t.enter("a", 0);
        std::thread::sleep(Duration::from_millis(2));
        t.exit();
        t.enter("b", 0);
        t.enter("b.inner", 0);
        std::thread::sleep(Duration::from_millis(2));
        t.exit();
        t.exit();
        t.exit();
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        // Self time never exceeds duration, and children nest inside.
        for (s, o) in spans.iter().zip(&own) {
            assert!(*o <= s.dur() + 1e-12 && *o >= -1e-12, "{s:?} self {o}");
        }
        assert!(own[2] < spans[2].dur(), "b's child is subtracted");
        let c = t.root_coverage();
        assert!(c > 0.0 && c <= 1.0, "coverage {c}");
        assert_eq!(t.totals("b.inner").count, 1);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn zero_clock_coverage_is_full() {
        let mut t = Tracer::new(Clock::Zero, 2);
        t.enter("epoch", 3);
        t.exit();
        assert_eq!(t.root_coverage(), 1.0);
        assert_eq!(
            t.totals("epoch"),
            SpanTotals {
                count: 1,
                total_s: 0.0,
                self_s: 0.0
            }
        );
    }
}
