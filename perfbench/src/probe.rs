//! Outside-in tracing: brackets around calls into each layer, made from
//! the benchmark's own delegating wrappers.
//!
//! Every bracket pushes a frame on a thread-local stack, so a span knows
//! its parent and a parent learns how much of its interval its children
//! covered. A layer's self time is its spans' durations minus their
//! direct children's. Brackets accumulate per operation in a
//! thread-local table (a handful of hot entries, whatever the number of
//! wrapped hosts); [`harvest`] collects the calling thread's table and
//! those of threads that have exited since, such as shard workers and
//! the telemetry collector.
//!
//! The library crates are not instrumented: the wrappers implement the
//! public `Qdisc`, `Agent`, `LinkMonitor` and `TelemetrySink` traits and
//! delegate every call unchanged.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use taq_sim::{
    seq_reuse_is_retransmission, Agent, Ctx, EnqueueOutcome, FlowKey, LinkId, LinkMonitor, Packet,
    PacketArena, PacketId, Qdisc, SimTime,
};
use taq_tcp::TimerKind;
use taq_telemetry::{Event, TelemetrySink};

/// The layers the traced run attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// The bracket around the whole run phase; its self time is the
    /// engine, links, routers and arena.
    Sim,
    /// The TAQ discipline (both halves of the middlebox).
    Taq,
    /// The DropTail discipline.
    DropTail,
    /// TCP hosts (`taq-tcp` servers and clients).
    Tcp,
    /// Metric monitors (`taq-metrics`).
    Metrics,
    /// Telemetry on the simulation thread: the bridge monitor's emits
    /// and the final collector drain.
    Telemetry,
    /// The telemetry sink, on the collector thread.
    Sink,
    /// The benchmark's own counting monitor (tracing cost, not program).
    Count,
    /// Input generation and scenario construction.
    Setup,
    /// Clock calibration.
    Calibration,
}

impl Layer {
    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sim => "sim",
            Layer::Taq => "taq",
            Layer::DropTail => "droptail",
            Layer::Tcp => "tcp",
            Layer::Metrics => "metrics",
            Layer::Telemetry => "telemetry",
            Layer::Sink => "telemetry.sink",
            Layer::Count => "count",
            Layer::Setup => "workloads",
            Layer::Calibration => "calibration",
        }
    }
}

/// A bracketed operation: one boundary into one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// The run phase (root).
    Run,
    /// `Qdisc::enqueue` on TAQ.
    TaqEnqueue,
    /// `Qdisc::dequeue`/`dequeue_batch` on TAQ.
    TaqDequeue,
    /// `Qdisc::enqueue` on DropTail.
    DropTailEnqueue,
    /// `Qdisc::dequeue`/`dequeue_batch` on DropTail.
    DropTailDequeue,
    /// `Agent::on_start` of a TCP host.
    TcpStart,
    /// `Agent::on_packet` of a TCP host.
    TcpPacket,
    /// `Agent::on_timer` of a TCP host.
    TcpTimer,
    /// A metric monitor hook.
    MetricsMonitor,
    /// A `TelemetryBridge` hook.
    TelemetryMonitor,
    /// Stopping the telemetry collector: final drain and merge.
    TelemetryDrain,
    /// `TelemetrySink::emit` on the collector thread.
    SinkEmit,
    /// A hook of the benchmark's counting monitor.
    CountMonitor,
    /// `weblog::generate` and grouping by client.
    Generate,
    /// The spec build plus client attachment.
    Build,
    /// An empty bracket timed by [`Calibration::measure`].
    Calibrate,
}

const OPS: usize = Op::Calibrate as usize + 1;
const MONITOR_STRIDE: u64 = 16;

impl Op {
    /// The layer the operation belongs to.
    pub fn layer(self) -> Layer {
        match self {
            Op::Run => Layer::Sim,
            Op::TaqEnqueue | Op::TaqDequeue => Layer::Taq,
            Op::DropTailEnqueue | Op::DropTailDequeue => Layer::DropTail,
            Op::TcpStart | Op::TcpPacket | Op::TcpTimer => Layer::Tcp,
            Op::MetricsMonitor => Layer::Metrics,
            Op::TelemetryMonitor | Op::TelemetryDrain => Layer::Telemetry,
            Op::SinkEmit => Layer::Sink,
            Op::CountMonitor => Layer::Count,
            Op::Generate | Op::Build => Layer::Setup,
            Op::Calibrate => Layer::Calibration,
        }
    }

    /// The operation's name within its layer.
    pub fn name(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::TaqEnqueue | Op::DropTailEnqueue => "enqueue",
            Op::TaqDequeue | Op::DropTailDequeue => "dequeue",
            Op::TcpStart => "on_start",
            Op::TcpPacket => "on_packet",
            Op::TcpTimer => "on_timer",
            Op::MetricsMonitor | Op::TelemetryMonitor | Op::CountMonitor => "monitor",
            Op::TelemetryDrain => "drain",
            Op::SinkEmit => "emit",
            Op::Generate => "generate",
            Op::Build => "build",
            Op::Calibrate => "calibrate",
        }
    }

    /// One call in this many is bracketed. Monitor hooks are short and
    /// run several times per packet: bracketing each one would cost more
    /// than the hook and slow the run down far beyond what the
    /// calibration removes. [`close`] scales a sampled span up to the
    /// calls it stands for.
    pub fn stride(self) -> u64 {
        match self {
            Op::MetricsMonitor | Op::TelemetryMonitor | Op::CountMonitor => MONITOR_STRIDE,
            _ => 1,
        }
    }

    fn from_index(i: usize) -> Op {
        const ALL: [Op; OPS] = [
            Op::Run,
            Op::TaqEnqueue,
            Op::TaqDequeue,
            Op::DropTailEnqueue,
            Op::DropTailDequeue,
            Op::TcpStart,
            Op::TcpPacket,
            Op::TcpTimer,
            Op::MetricsMonitor,
            Op::TelemetryMonitor,
            Op::TelemetryDrain,
            Op::SinkEmit,
            Op::CountMonitor,
            Op::Generate,
            Op::Build,
            Op::Calibrate,
        ];
        ALL[i]
    }
}

/// Work counted by the wrappers beside their brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// Packets TAQ handed out on dequeue.
    TaqDequeued,
    /// Packets DropTail handed out on dequeue.
    DropTailDequeued,
    /// TCP timer fires that were timeouts.
    TcpTimeouts,
}

const COUNTERS: usize = Counter::TcpTimeouts as usize + 1;

impl Counter {
    const ALL: [Counter; COUNTERS] = [
        Counter::TaqDequeued,
        Counter::DropTailDequeued,
        Counter::TcpTimeouts,
    ];
}

/// Duration histogram: exact below 128 ns, then 32 log-linear buckets
/// per octave (about 3% wide).
#[derive(Debug, Clone, Default)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

const EXACT: u64 = 128;
const SUB_BITS: u32 = 5;

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros();
    let mantissa = (v >> (octave - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    EXACT as usize + (((octave - 7) << SUB_BITS) as usize) + mantissa as usize
}

/// `[lo, hi)` of bucket `i`.
fn bucket_range(i: usize) -> (f64, f64) {
    if (i as u64) < EXACT {
        return (i as f64, i as f64 + 1.0);
    }
    let j = i - EXACT as usize;
    let octave = (j >> SUB_BITS) as u32 + 7;
    let mantissa = (j & ((1 << SUB_BITS) - 1)) as u64;
    let width = 1u64 << (octave - SUB_BITS);
    let lo = (1u64 << octave) + mantissa * width;
    (lo as f64, (lo + width) as f64)
}

impl Hist {
    fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    /// Adds `other`'s samples.
    pub fn merge(&mut self, other: &Hist) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Quantile `q` in nanoseconds, interpolated inside its bucket;
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let target = q * (self.total - 1) as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 > target {
                let (lo, hi) = bucket_range(i);
                let within = (target - seen as f64 + 0.5) / c as f64;
                return Some(lo + (hi - lo) * within.clamp(0.0, 1.0));
            }
            seen += c;
        }
        let (lo, _) = bucket_range(self.counts.len() - 1);
        Some(lo)
    }

    /// Non-empty buckets as `(lo_ns, count)`.
    pub fn buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_range(i).0, c))
            .collect()
    }
}

/// One recorded span, kept in the bounded raw sample.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span id (unique in the process).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 at top level.
    pub parent: u64,
    /// Start, nanoseconds since the first bracket.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Every 256th bracket of an operation on a thread is kept as a raw
/// span, up to this many.
const SPAN_STRIDE: u64 = 256;
const SPANS_KEPT: usize = 4096;

/// Accumulated brackets of one operation.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// Bracketed calls: one in [`Op::stride`] of the calls made.
    pub calls: u64,
    /// Sum of span durations, each sampled span scaled to the calls it
    /// stands for.
    pub total_ns: u64,
    /// Sum of span durations minus their direct children's.
    pub self_ns: u64,
    /// Direct child spans opened inside these spans.
    pub child_calls: u64,
    /// Durations of the bracketed calls, unscaled.
    pub hist: Hist,
    /// Raw span sample.
    pub spans: Vec<SpanRecord>,
}

impl OpStats {
    /// Adds `other`'s brackets.
    pub fn merge(&mut self, other: &OpStats) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.child_calls += other.child_calls;
        self.hist.merge(&other.hist);
        let room = SPANS_KEPT.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.iter().take(room).copied());
    }
}

/// What the brackets of one or more threads accumulated.
#[derive(Debug, Clone, Default)]
pub struct Harvest {
    /// Brackets by operation.
    pub ops: BTreeMap<Op, OpStats>,
    /// Work counters.
    pub counters: BTreeMap<Counter, u64>,
}

impl Harvest {
    /// The brackets of `op` (empty if it never ran).
    pub fn op(&self, op: Op) -> OpStats {
        self.ops.get(&op).cloned().unwrap_or_default()
    }

    /// The value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }

    fn absorb(&mut self, tracer: &mut Tracer) {
        for (i, st) in tracer.ops.iter_mut().enumerate() {
            if st.calls > 0 {
                self.ops
                    .entry(Op::from_index(i))
                    .or_default()
                    .merge(&std::mem::take(st));
            }
        }
        for (counter, n) in Counter::ALL.into_iter().zip(tracer.counters.iter_mut()) {
            if *n > 0 {
                *self.counters.entry(counter).or_default() += std::mem::take(n);
            }
        }
    }
}

struct Frame {
    child_ns: u64,
    child_calls: u64,
    id: u64,
}

/// A thread's bracket state.
struct Tracer {
    stack: Vec<Frame>,
    ops: Vec<OpStats>,
    counters: [u64; COUNTERS],
    next_id: u64,
}

impl Drop for Tracer {
    /// Hands an exiting thread's brackets to the next [`harvest`].
    fn drop(&mut self) {
        let busy = self.ops.iter().any(|s| s.calls > 0) || self.counters.iter().any(|&n| n > 0);
        if busy {
            let mut h = Harvest::default();
            h.absorb(self);
            if let Ok(mut exited) = EXITED.lock() {
                exited.push(h);
            }
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer {
            stack: Vec::new(),
            ops: Vec::new(),
            counters: [0; COUNTERS],
            next_id: 0,
        })
    };
}

static EXITED: Mutex<Vec<Harvest>> = Mutex::new(Vec::new());
static THREADS: AtomicU64 = AtomicU64::new(1);
/// The latest [`Calibration::inner_ns`], as `f64` bits.
static INNER_NS: AtomicU64 = AtomicU64::new(0);

/// Takes the calling thread's brackets and those of every thread that
/// exited since the last harvest, leaving both empty.
pub fn harvest() -> Harvest {
    let mut h = Harvest::default();
    TRACER.with(|t| h.absorb(&mut t.borrow_mut()));
    let exited = std::mem::take(&mut *EXITED.lock().expect("exited-thread list poisoned"));
    for mut other in exited {
        for (op, st) in std::mem::take(&mut other.ops) {
            h.ops.entry(op).or_default().merge(&st);
        }
        for (c, n) in other.counters {
            *h.counters.entry(c).or_default() += n;
        }
    }
    h
}

/// The bracket clock in ticks: the time-stamp counter on x86-64 (a few
/// nanoseconds to read, where `Instant::now` can cost tens and would
/// dominate short brackets), `Instant` elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
fn ticks() -> u64 {
    // SAFETY: RDTSC exists on every x86-64 processor and only reads the
    // time-stamp counter.
    unsafe { std::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn ticks() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The tick count when first read: the origin of span start times.
fn epoch() -> u64 {
    static EPOCH: OnceLock<u64> = OnceLock::new();
    *EPOCH.get_or_init(ticks)
}

/// Nanoseconds per tick, measured once against `Instant` over 20 ms.
pub fn ns_per_tick() -> f64 {
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();
    *NS_PER_TICK.get_or_init(|| {
        let t0 = Instant::now();
        let k0 = ticks();
        while t0.elapsed() < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let k1 = ticks();
        t0.elapsed().as_nanos() as f64 / (k1 - k0).max(1) as f64
    })
}

fn to_ns(ticks: u64, ns_per_tick: f64) -> u64 {
    (ticks as f64 * ns_per_tick) as u64
}

/// An open bracket; close it with [`close`].
#[must_use]
pub struct Open {
    start: u64,
}

/// Opens a bracket on the calling thread.
#[inline]
pub fn open() -> Open {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.next_id == 0 {
            t.next_id = THREADS.fetch_add(1, Ordering::Relaxed) << 40;
        }
        t.next_id += 1;
        let id = t.next_id;
        t.stack.push(Frame {
            child_ns: 0,
            child_calls: 0,
            id,
        });
    });
    Open { start: ticks() }
}

/// Closes `span`, accounting it to `op`.
#[inline]
pub fn close(span: Open, op: Op) {
    let end = ticks();
    let ns_per_tick = ns_per_tick();
    let raw = to_ns(end.wrapping_sub(span.start), ns_per_tick);
    // A sampled span stands for its own call plus `stride - 1` others
    // that cost what it did less the bracket.
    let dur = match op.stride() {
        1 => raw,
        n => {
            let inner = f64::from_bits(INNER_NS.load(Ordering::Relaxed));
            raw + ((n - 1) as f64 * (raw as f64 - inner).max(0.0)) as u64
        }
    };
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let frame = t.stack.pop().expect("span stack underflow");
        let parent = t.stack.last_mut().map_or(0, |p| {
            p.child_ns += dur;
            p.child_calls += 1;
            p.id
        });
        if t.ops.len() < OPS {
            t.ops.resize_with(OPS, OpStats::default);
        }
        let st = &mut t.ops[op as usize];
        st.calls += 1;
        st.total_ns += dur;
        st.self_ns += dur.saturating_sub(frame.child_ns);
        st.child_calls += frame.child_calls;
        st.hist.record(raw);
        if st.calls % SPAN_STRIDE == 1 && st.spans.len() < SPANS_KEPT {
            st.spans.push(SpanRecord {
                id: frame.id,
                parent,
                start_ns: to_ns(span.start.saturating_sub(epoch()), ns_per_tick),
                dur_ns: raw,
            });
        }
    });
}

/// Runs `f` inside a bracket accounted to `op`.
pub fn bracket<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let span = open();
    let out = f();
    close(span, op);
    out
}

/// Adds `n` to `counter` on the calling thread.
#[inline]
pub fn count(counter: Counter, n: u64) {
    TRACER.with(|t| t.borrow_mut().counters[counter as usize] += n);
}

/// Clock calibration: what an empty bracket costs.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Wall time per empty bracketed call, all bookkeeping included.
    pub pair_ns: f64,
    /// The part of that cost an empty span reports as its own duration;
    /// the rest lands in the enclosing span.
    pub inner_ns: f64,
}

impl Calibration {
    /// Measures the cost of an empty bracket under an enclosing one,
    /// the shape every wrapped call has. Median of several rounds.
    /// Discards any brackets the calling thread had accumulated, and
    /// makes the result the one sampled spans are scaled with.
    pub fn measure() -> Calibration {
        const ROUNDS: usize = 7;
        const CALLS: u64 = 100_000;
        epoch();
        let ns_per_tick = ns_per_tick();
        let mut pair = Vec::with_capacity(ROUNDS);
        let mut inner = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let _ = harvest();
            let outer = open();
            let t0 = ticks();
            for _ in 0..CALLS {
                let span = open();
                close(span, Op::Calibrate);
            }
            let t1 = ticks();
            let spans = harvest().op(Op::Calibrate);
            close(outer, Op::Calibrate);
            let _ = harvest();
            pair.push(to_ns(t1 - t0, ns_per_tick) as f64 / CALLS as f64);
            inner.push(spans.total_ns as f64 / CALLS as f64);
        }
        let calib = Calibration {
            pair_ns: median(&mut pair),
            inner_ns: median(&mut inner),
        };
        INNER_NS.store(calib.inner_ns.to_bits(), Ordering::Relaxed);
        calib
    }

    /// The part of a bracket's cost charged to the enclosing span.
    pub fn outer_ns(&self) -> f64 {
        (self.pair_ns - self.inner_ns).max(0.0)
    }
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Delegating [`Qdisc`] that brackets enqueue and dequeue.
pub struct TracedQdisc {
    inner: Box<dyn Qdisc>,
    enqueue: Op,
    dequeue: Op,
    dequeued: Counter,
}

impl TracedQdisc {
    /// Wraps `inner`, a TAQ half when `taq`, DropTail otherwise.
    pub fn new(inner: Box<dyn Qdisc>, taq: bool) -> TracedQdisc {
        let (enqueue, dequeue, dequeued) = if taq {
            (Op::TaqEnqueue, Op::TaqDequeue, Counter::TaqDequeued)
        } else {
            (
                Op::DropTailEnqueue,
                Op::DropTailDequeue,
                Counter::DropTailDequeued,
            )
        };
        TracedQdisc {
            inner,
            enqueue,
            dequeue,
            dequeued,
        }
    }
}

impl Qdisc for TracedQdisc {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: SimTime) -> EnqueueOutcome {
        let span = open();
        let out = self.inner.enqueue(pkt, arena, now);
        close(span, self.enqueue);
        out
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: SimTime) -> Option<PacketId> {
        let span = open();
        let out = self.inner.dequeue(arena, now);
        close(span, self.dequeue);
        count(self.dequeued, u64::from(out.is_some()));
        out
    }

    fn dequeue_batch(
        &mut self,
        arena: &mut PacketArena,
        now: SimTime,
        out: &mut Vec<PacketId>,
        max: usize,
    ) -> usize {
        let span = open();
        let n = self.inner.dequeue_batch(arena, now, out, max);
        close(span, self.dequeue);
        count(self.dequeued, n as u64);
        n
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn byte_len(&self) -> usize {
        self.inner.byte_len()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Delegating [`Agent`] that brackets every callback. Generic, so the
/// host stays reachable after the run through
/// `Simulator::agent_mut::<TracedAgent<ClientHost>>` — the downcast to
/// the bare host no longer matches.
pub struct TracedAgent<A> {
    /// The wrapped host.
    pub inner: A,
}

/// `taq_tcp` hosts encode a timer token as `slot * 8 + TimerKind::code`;
/// retransmission timeouts and SYN retries are the timeouts.
fn is_timeout_token(token: u64) -> bool {
    matches!(
        TimerKind::from_code(token % 8),
        Some(TimerKind::Rto | TimerKind::SynRetry)
    )
}

impl<A: Agent + 'static> Agent for TracedAgent<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let span = open();
        self.inner.on_start(ctx);
        close(span, Op::TcpStart);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        let span = open();
        self.inner.on_packet(pkt, ctx);
        close(span, Op::TcpPacket);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        count(Counter::TcpTimeouts, u64::from(is_timeout_token(token)));
        let span = open();
        self.inner.on_timer(token, ctx);
        close(span, Op::TcpTimer);
    }
}

/// Delegating [`LinkMonitor`] that brackets one hook call in
/// [`Op::stride`].
pub struct TracedMonitor {
    /// The wrapped monitor.
    pub inner: Box<dyn LinkMonitor>,
    op: Op,
    calls: u64,
}

impl TracedMonitor {
    /// Wraps `inner`, accounting its hooks to `op`.
    pub fn new(inner: Box<dyn LinkMonitor>, op: Op) -> TracedMonitor {
        TracedMonitor {
            inner,
            op,
            calls: 0,
        }
    }

    #[inline]
    fn hook(&mut self, call: impl FnOnce(&mut dyn LinkMonitor)) {
        self.calls += 1;
        if self.calls.is_multiple_of(self.op.stride()) {
            let span = open();
            call(self.inner.as_mut());
            close(span, self.op);
        } else {
            call(self.inner.as_mut());
        }
    }
}

impl LinkMonitor for TracedMonitor {
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.hook(|m| m.on_enqueue(link, pkt, now));
    }

    fn on_drop(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.hook(|m| m.on_drop(link, pkt, now));
    }

    fn on_transmit(&mut self, link: LinkId, pkt: &Packet, now: SimTime) {
        self.hook(|m| m.on_transmit(link, pkt, now));
    }

    fn on_deliver(&mut self, node: u32, pkt: &Packet, now: SimTime) {
        self.hook(|m| m.on_deliver(node, pkt, now));
    }

    fn fork_shard(&self) -> Option<Box<dyn LinkMonitor>> {
        let inner = self.inner.fork_shard()?;
        Some(Box::new(TracedMonitor::new(inner, self.op)))
    }

    fn merge_shard(&mut self, mut fork: Box<dyn LinkMonitor>) {
        let fork = fork
            .as_mut()
            .as_any_mut()
            .downcast_mut::<TracedMonitor>()
            .expect("fork_shard returns a TracedMonitor");
        let inner = std::mem::replace(&mut fork.inner, Box::new(CountingMonitor::default()));
        self.inner.merge_shard(inner);
    }
}

/// Delegating [`TelemetrySink`] that brackets every emit. It runs on
/// the collector thread, so its spans have no parent.
pub struct TracedSink<S> {
    /// The wrapped sink.
    pub inner: S,
}

impl<S: TelemetrySink> TelemetrySink for TracedSink<S> {
    fn emit(&mut self, at_ns: u64, event: &Event) {
        let span = open();
        self.inner.emit(at_ns, event);
        close(span, Op::SinkEmit);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Exact link-level work counts, plus wire-level retransmission
/// inference at the first hop of every server-sent data segment.
#[derive(Debug, Default, Clone)]
pub struct CountingMonitor {
    /// Packets offered to any link's queue.
    pub enqueues: u64,
    /// Packets dropped (queue drops and wire losses).
    pub drops: u64,
    /// Packets serialized onto a link.
    pub transmits: u64,
    /// Packets handed to a node.
    pub delivers: u64,
    /// Data segments leaving a server.
    pub segments: u64,
    /// Of those, segments re-sending bytes already sent.
    pub retransmits: u64,
    /// `first_hop[link]`: the link leaves a server host.
    first_hop: Arc<Vec<bool>>,
    high_water: HashMap<FlowKey, u64>,
}

impl CountingMonitor {
    /// A counter treating the links flagged in `first_hop` as the
    /// servers' uplinks.
    pub fn new(first_hop: Vec<bool>) -> CountingMonitor {
        CountingMonitor {
            first_hop: Arc::new(first_hop),
            ..CountingMonitor::default()
        }
    }
}

impl LinkMonitor for CountingMonitor {
    fn on_enqueue(&mut self, link: LinkId, pkt: &Packet, _now: SimTime) {
        self.enqueues += 1;
        if pkt.payload_len > 0 && self.first_hop.get(link.0 as usize) == Some(&true) {
            self.segments += 1;
            let end = pkt.seq_end();
            let high = self.high_water.entry(pkt.flow).or_insert(0);
            if seq_reuse_is_retransmission(end, *high) {
                self.retransmits += 1;
            }
            *high = (*high).max(end);
        }
    }

    fn on_drop(&mut self, _link: LinkId, _pkt: &Packet, _now: SimTime) {
        self.drops += 1;
    }

    fn on_transmit(&mut self, _link: LinkId, _pkt: &Packet, _now: SimTime) {
        self.transmits += 1;
    }

    fn on_deliver(&mut self, _node: u32, _pkt: &Packet, _now: SimTime) {
        self.delivers += 1;
    }

    fn fork_shard(&self) -> Option<Box<dyn LinkMonitor>> {
        Some(Box::new(CountingMonitor {
            first_hop: self.first_hop.clone(),
            ..CountingMonitor::default()
        }))
    }

    fn merge_shard(&mut self, fork: Box<dyn LinkMonitor>) {
        let fork = fork
            .as_ref()
            .as_any()
            .downcast_ref::<CountingMonitor>()
            .expect("fork_shard returns a CountingMonitor");
        self.enqueues += fork.enqueues;
        self.drops += fork.drops;
        self.transmits += fork.transmits;
        self.delivers += fork.delivers;
        self.segments += fork.segments;
        self.retransmits += fork.retransmits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_values_in_order() {
        let mut last = 0;
        for v in [0u64, 1, 127, 128, 129, 200, 1_000, 65_535, 1 << 40] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket order at {v}");
            let (lo, hi) = bucket_range(b);
            assert!(
                lo <= v as f64 && (v as f64) < hi,
                "{v} outside [{lo}, {hi})"
            );
            last = b;
        }
    }

    #[test]
    fn timeout_tokens_are_told_from_other_timers() {
        // The hosts' encoding: slot * 8 + kind code; a client's request
        // schedule uses the code 7, which no timer kind has.
        let token = |slot: u64, code: u64| slot * 8 + code;
        for slot in [0, 1, 7, 12_345] {
            assert!(is_timeout_token(token(slot, TimerKind::Rto.code())));
            assert!(is_timeout_token(token(slot, TimerKind::SynRetry.code())));
            assert!(!is_timeout_token(token(slot, TimerKind::DelayedAck.code())));
            assert!(!is_timeout_token(token(slot, 7)));
        }
    }

    /// One test, because `harvest` drains a process-wide list that
    /// parallel tests would race on.
    #[test]
    fn brackets_nest_and_exited_threads_are_harvested() {
        let _ = harvest();
        let span = open();
        for _ in 0..3 {
            bracket(Op::TaqEnqueue, || std::hint::black_box(1 + 1));
        }
        close(span, Op::Run);
        std::thread::spawn(|| bracket(Op::SinkEmit, || ()))
            .join()
            .expect("bracketing thread panicked");
        let h = harvest();
        let (outer, inner) = (h.op(Op::Run), h.op(Op::TaqEnqueue));
        assert_eq!(outer.child_calls, 3);
        assert_eq!(inner.calls, 3);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(h.op(Op::SinkEmit).calls, 1);

        // Monitor hooks: every call reaches the monitor, one in a stride
        // is bracketed, and it counts for the whole stride in its parent.
        let mut m = TracedMonitor::new(Box::new(CountingMonitor::default()), Op::CountMonitor);
        let pkt = taq_sim::PacketBuilder::new(FlowKey {
            src: taq_sim::NodeId(0),
            src_port: 1,
            dst: taq_sim::NodeId(1),
            dst_port: 2,
        })
        .build();
        let span = open();
        for _ in 0..2 * MONITOR_STRIDE {
            m.on_drop(LinkId(0), &pkt, SimTime::ZERO);
        }
        close(span, Op::Run);
        let h = harvest();
        let (outer, hooks) = (h.op(Op::Run), h.op(Op::CountMonitor));
        let counted = m.inner.as_any().downcast_ref::<CountingMonitor>();
        assert_eq!(counted.map(|c| c.drops), Some(2 * MONITOR_STRIDE));
        assert_eq!(hooks.calls, 2);
        assert_eq!(outer.child_calls, 2);
        assert_eq!(outer.self_ns + hooks.total_ns, outer.total_ns);
    }
}
