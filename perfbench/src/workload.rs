//! The benchmark workloads, built through the public scenario APIs.
//!
//! A plain run uses the library path a user would take
//! (`DumbbellSpec::build_with_reverse`, `AccessTreeSpec::build`, the
//! scenarios' `run_until`). A traced run needs its hosts wrapped, and
//! the scenario builders box their hosts themselves, so it wires the
//! same topology from the public pieces (`Dumbbell`, `Topology`,
//! `ClientHost`, `ServerHost`) with [`TracedAgent`] around every host.
//! That mirror must reproduce the library's construction exactly; the
//! digest and event-count checks between plain and traced runs are what
//! hold it to that.

use crate::probe::{
    bracket, close, open, CountingMonitor, Op, TracedAgent, TracedMonitor, TracedQdisc, TracedSink,
};
use crate::sys;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taq::{SharedTaq, TaqStats};
use taq_metrics::{EvolutionTracker, SliceThroughput};
use taq_sim::{
    Bandwidth, Dumbbell, DumbbellConfig, LinkId, LinkMonitor, MonitorId, NodeId, Qdisc, ShardPlan,
    SimDuration, SimRng, SimTime, Simulator, TelemetryBridge, TopoLinkConfig, Topology,
    TopologyConfig,
};
use taq_tcp::{new_flow_log, ClientHost, Request, ServerHost, SharedFlowLog, TcpConfig};
use taq_telemetry::{ring, shared_sink, spawn_collector, RingSession, SummarySink, Telemetry};
use taq_workloads::weblog::{self, LogEntry, WebLogConfig};
use taq_workloads::{
    flows_for_fair_share, pipe_seed, AccessTreeSpec, DumbbellScenario, DumbbellSpec, QdiscSpec,
    TopoScenario, BULK_BYTES,
};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Fig 1 campus web-log replay through TAQ, no observer.
    WeblogChurn,
    /// Long-lived flows at a 2 kbps and a 20 kbps fair share, under TAQ
    /// and under DropTail.
    ManyflowFairness,
    /// `WeblogChurn` with a summary sink attached over the ring
    /// telemetry transport.
    WeblogObserved,
    /// The 4-leaf access tree built through `TopologySpec`; timed on the
    /// serial engine, checked and measured on the sharded one too.
    AccessTree,
}

impl Kind {
    /// The workloads the command line accepts, in report order.
    /// `WeblogObserved` is not one of them: the traced `weblog_churn`
    /// invocation runs it as its observed twin.
    pub const COMMAND_LINE: [Kind; 3] =
        [Kind::WeblogChurn, Kind::ManyflowFairness, Kind::AccessTree];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::WeblogChurn => "weblog_churn",
            Kind::ManyflowFairness => "manyflow_fairness",
            Kind::WeblogObserved => "weblog_observed",
            Kind::AccessTree => "access_tree",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::COMMAND_LINE.into_iter().find(|k| k.name() == s)
    }
}

/// How much simulated work one run does.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Divisor of the two-hour campus log (24 = five minutes).
    pub weblog_scale: u32,
    /// Independent log replays per run, each from its own seed.
    pub weblog_replays: u64,
    /// Simulated seconds after the log's last request.
    pub weblog_tail_s: u64,
    /// Simulated seconds of each many-flow run.
    pub manyflow_s: u64,
    /// Simulated seconds of the access tree.
    pub tree_s: u64,
}

impl Sizes {
    /// The sizes the benchmark measures.
    pub fn standard() -> Sizes {
        Sizes {
            weblog_scale: 24,
            weblog_replays: 3,
            weblog_tail_s: 60,
            manyflow_s: 200,
            tree_s: 240,
        }
    }

    /// Short horizons for tests.
    pub fn short() -> Sizes {
        Sizes {
            weblog_scale: 240,
            weblog_replays: 2,
            weblog_tail_s: 10,
            manyflow_s: 24,
            tree_s: 10,
        }
    }
}

/// Options for one run.
#[derive(Clone, Default)]
pub struct RunOpts {
    /// Wrap every layer in the tracing wrappers.
    pub trace: bool,
    /// Engine shards for the access tree (default 1: the serial engine).
    pub shards: Option<u32>,
}

/// Engine shards of the access tree's sharded runs: two, never more
/// than the cores present.
pub fn sharded_shards() -> u32 {
    (sys::nproc() as u32).clamp(1, 2)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disc {
    Taq,
    DropTail,
}

impl Disc {
    fn spec(self, buffer_pkts: usize) -> QdiscSpec {
        match self {
            Disc::Taq => QdiscSpec::taq(buffer_pkts),
            Disc::DropTail => QdiscSpec::DropTail { buffer_pkts },
        }
    }
}

/// Where a mirrored scenario attaches its hosts.
enum Attach {
    Dumbbell(Dumbbell),
    Topo(Topology),
}

/// A scenario wired by hand with every host wrapped (see module docs).
struct Mirror {
    sim: Simulator,
    attach: Attach,
    server: NodeId,
    log: SharedFlowLog,
    clients: Vec<NodeId>,
    tcp: TcpConfig,
    rng: SimRng,
    plan: Option<ShardPlan>,
}

impl Mirror {
    fn new(mut sim: Simulator, attach: Attach, tcp: TcpConfig, seed: u64) -> Mirror {
        let server = TracedAgent {
            inner: ServerHost::new(tcp.clone(), 80),
        };
        let server = sim.add_agent(Box::new(server));
        match &attach {
            Attach::Dumbbell(db) => db.attach_left(&mut sim, server),
            Attach::Topo(topo) => topo.attach_host(&mut sim, server, 0),
        }
        Mirror {
            sim,
            attach,
            server,
            log: new_flow_log(),
            clients: Vec::new(),
            tcp,
            // The workload stream both scenario builders derive.
            rng: SimRng::new(seed ^ 0x5CEA_A210).split(1),
            plan: None,
        }
    }

    fn spawn(
        &mut self,
        client: ClientHost,
        router: usize,
        start: SimTime,
        delay: Option<SimDuration>,
    ) {
        let node = self.sim.add_agent(Box::new(TracedAgent { inner: client }));
        match (&self.attach, delay) {
            (Attach::Dumbbell(db), Some(d)) => db.attach_right_with_delay(&mut self.sim, node, d),
            (Attach::Dumbbell(db), None) => db.attach_right(&mut self.sim, node),
            (Attach::Topo(t), Some(d)) => t.attach_host_with_delay(&mut self.sim, node, router, d),
            (Attach::Topo(t), None) => t.attach_host(&mut self.sim, node, router),
        }
        self.sim.schedule_start(node, start);
        self.clients.push(node);
    }

    fn add_scheduled_client(&mut self, schedule: &[LogEntry], max_parallel: usize) {
        let mut c = ClientHost::new(
            self.tcp.clone(),
            self.server,
            80,
            max_parallel,
            self.log.clone(),
        );
        for e in schedule {
            c.schedule_request(
                e.at,
                Request {
                    tag: e.tag,
                    bytes: e.bytes,
                },
            );
        }
        self.spawn(c, 0, SimTime::ZERO, None);
    }

    fn add_bulk_clients(&mut self, router: usize, n: usize, stagger: SimDuration) {
        let base = match &self.attach {
            Attach::Dumbbell(db) => db.config().access_delay,
            Attach::Topo(t) => t.config().access_delay,
        };
        for _ in 0..n {
            let offset = if n > 1 && !stagger.is_zero() {
                SimDuration::from_nanos(self.rng.range_u64(0, stagger.as_nanos()))
            } else {
                SimDuration::ZERO
            };
            let jitter = SimDuration::from_micros(self.rng.range_u64(0, 10_000));
            let mut c = ClientHost::new(self.tcp.clone(), self.server, 80, 1, self.log.clone());
            c.push_request(Request {
                tag: self.clients.len() as u64,
                bytes: BULK_BYTES,
            });
            self.spawn(c, router, SimTime::ZERO + offset, Some(base + jitter));
        }
    }

    /// Runs to `horizon` as the scenarios' `run_until` does.
    fn run_until(&mut self, horizon: SimTime) {
        match &self.plan {
            Some(plan) => {
                self.sim
                    .run_until_sharded(horizon, plan)
                    .expect("sharded run failed");
            }
            None => {
                self.sim.run_until(horizon);
            }
        }
        // The trap the mirror exists for: `agent_mut::<ClientHost>` no
        // longer matches a wrapped host, so flush through the wrapper.
        for &node in &self.clients {
            if let Some(c) = self.sim.agent_mut::<TracedAgent<ClientHost>>(node) {
                c.inner.flush_incomplete();
            }
        }
        if self.plan.is_some() {
            self.log.lock().expect("flow log poisoned").sort_canonical();
        }
    }
}

/// Allocation and event counters at a point of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Steady {
    /// Heap allocations.
    pub allocs: u64,
    /// Simulator events.
    pub events: u64,
}

impl Steady {
    fn mark(sim: &Simulator) -> Steady {
        Steady {
            allocs: sys::allocs(),
            events: sim.events_processed(),
        }
    }

    fn since(self, sim: &Simulator) -> Steady {
        Steady {
            allocs: sys::allocs() - self.allocs,
            events: sim.events_processed() - self.events,
        }
    }

    fn add(&mut self, other: Steady) {
        self.allocs += other.allocs;
        self.events += other.events;
    }
}

enum Scenario {
    Dumbbell(DumbbellScenario),
    Topo(TopoScenario),
    Mirror(Mirror),
}

/// One simulation of a workload (the many-flow workload has four).
struct Case {
    label: &'static str,
    scenario: Scenario,
    disc: Disc,
    bottleneck: LinkId,
    taq: Option<SharedTaq>,
    horizon: SimTime,
    bulk_flows: usize,
    slices: Option<MonitorId>,
    counter: Option<MonitorId>,
    observer: Option<Observer>,
}

impl Case {
    fn sim(&self) -> &Simulator {
        match &self.scenario {
            Scenario::Dumbbell(sc) => &sc.sim,
            Scenario::Topo(sc) => &sc.sim,
            Scenario::Mirror(m) => &m.sim,
        }
    }

    fn sim_mut(&mut self) -> &mut Simulator {
        match &mut self.scenario {
            Scenario::Dumbbell(sc) => &mut sc.sim,
            Scenario::Topo(sc) => &mut sc.sim,
            Scenario::Mirror(m) => &mut m.sim,
        }
    }

    fn log(&self) -> &SharedFlowLog {
        match &self.scenario {
            Scenario::Dumbbell(sc) => &sc.log,
            Scenario::Topo(sc) => &sc.log,
            Scenario::Mirror(m) => &m.log,
        }
    }

    /// Simulates the horizon. The first half is warm-up: allocations
    /// are charged to the second (a sharded run can be driven only once,
    /// so it is charged whole).
    fn run(&mut self) -> Steady {
        let horizon = self.horizon;
        let sharded = match &self.scenario {
            Scenario::Topo(sc) => sc.shards > 1,
            Scenario::Mirror(m) => m.plan.is_some(),
            Scenario::Dumbbell(_) => false,
        };
        if !sharded {
            self.sim_mut()
                .run_until(SimTime::from_nanos(horizon.as_nanos() / 2));
        }
        let start = Steady::mark(self.sim());
        match &mut self.scenario {
            Scenario::Dumbbell(sc) => sc.run_until(horizon),
            Scenario::Topo(sc) => sc.run_until(horizon),
            Scenario::Mirror(m) => m.run_until(horizon),
        }
        start.since(self.sim())
    }

    /// Adds `monitor`, bracketed as `op` when traced.
    fn add_monitor(&mut self, monitor: Box<dyn LinkMonitor>, op: Op, trace: bool) -> MonitorId {
        let monitor: Box<dyn LinkMonitor> = if trace {
            Box::new(TracedMonitor::new(monitor, op))
        } else {
            monitor
        };
        self.sim_mut().add_monitor(monitor)
    }

    /// Adds the benchmark's counting monitor (traced runs only).
    fn add_counter(&mut self, server: NodeId) {
        let sim = self.sim();
        let first_hop = (0..sim.link_count())
            .map(|l| sim.link_endpoints(LinkId(l as u32)).0 == server)
            .collect();
        let id = self.add_monitor(
            Box::new(CountingMonitor::new(first_hop)),
            Op::CountMonitor,
            true,
        );
        self.counter = Some(id);
    }

    /// Attaches a summary sink through a `TelemetryBridge`.
    fn observe(&mut self, trace: bool) {
        let telemetry = Telemetry::new();
        let sink = if trace {
            let (typed, erased) = shared_sink(TracedSink {
                inner: SummarySink::new(),
            });
            telemetry.add_shared_sink(erased);
            SinkHandle::Traced(typed)
        } else {
            let (typed, erased) = shared_sink(SummarySink::new());
            telemetry.add_shared_sink(erased);
            SinkHandle::Plain(typed)
        };
        let bridge = Box::new(TelemetryBridge::new(telemetry.clone()));
        self.add_monitor(bridge, Op::TelemetryMonitor, trace);
        self.observer = Some(Observer { telemetry, sink });
    }

    /// Runs the case, inside a ring telemetry session with a collector
    /// thread when it is observed.
    fn run_observed(&mut self, trace: bool, telemetry: &mut Option<TelemetryOutcome>) -> Steady {
        let Some(obs) = &self.observer else {
            return self.run();
        };
        let session = RingSession::install(&obs.telemetry, 1, RING_CAPACITY);
        let collector = spawn_collector(session.set(), obs.telemetry.clone());
        let binding = ring::bind_shard_thread(0);
        let steady = self.run();
        drop(binding);
        let obs = self.observer.as_ref().expect("checked above");
        let t0 = Instant::now();
        let span = trace.then(open);
        let report = collector.stop();
        drop(session);
        obs.telemetry.flush();
        if let Some(span) = span {
            close(span, Op::TelemetryDrain);
        }
        let tel = telemetry.get_or_insert_with(TelemetryOutcome::default);
        tel.drain_s += t0.elapsed().as_secs_f64();
        tel.overflowed += report.overflowed;
        steady
    }
}

/// A monitor registered on `sim`, looked through a [`TracedMonitor`].
fn monitor<T: 'static>(sim: &Simulator, id: MonitorId) -> &T {
    if let Some(m) = sim.monitor::<T>(id) {
        return m;
    }
    sim.monitor::<TracedMonitor>(id)
        .and_then(|t| t.inner.as_ref().as_any().downcast_ref::<T>())
        .expect("monitor of the expected type")
}

/// The telemetry attached to `weblog_observed`.
struct Observer {
    telemetry: Telemetry,
    sink: SinkHandle,
}

enum SinkHandle {
    Plain(Arc<Mutex<SummarySink>>),
    Traced(Arc<Mutex<TracedSink<SummarySink>>>),
}

/// Ring capacity of the observed run: the size `bench_report` uses for
/// its live-collector ring.
const RING_CAPACITY: usize = 1 << 12;

/// A built workload, ready to run.
pub struct Prepared {
    cases: Vec<Case>,
    trace: bool,
    /// Input generation wall time.
    pub generate_s: f64,
    /// Scenario construction wall time.
    pub build_s: f64,
    /// Heap allocations during set-up.
    pub setup_allocs: u64,
}

/// Bottleneck rate of the web-log workloads (Fig 1).
const WEBLOG_RATE_BPS: u64 = 2_000_000;
/// Connections per web client.
const WEBLOG_PARALLEL: usize = 4;
/// The many-flow link and its two fair-share points.
const MANYFLOW_RATE_BPS: u64 = 600_000;
const MANYFLOW_SHARES_BPS: [u64; 2] = [2_000, 20_000];
/// 20 s fairness slices; the first two are start-up and are skipped.
const SLICE: SimDuration = SimDuration::from_secs(20);
const SKIP_SLICES: usize = 2;

fn timed<R>(trace: bool, op: Op, f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = if trace { bracket(op, f) } else { f() };
    (out, t0.elapsed().as_secs_f64())
}

fn buffer_for(rate: Bandwidth) -> usize {
    rate.packets_per(SimDuration::from_millis(200), 500)
}

/// Wraps a pipe's qdiscs when traced. TAQ's reverse half is part of the
/// middlebox; a DropTail pipe's reverse FIFO is plain link machinery.
fn wrap_pipe(
    forward: Box<dyn Qdisc>,
    reverse: Box<dyn Qdisc>,
    taq: bool,
) -> (Box<dyn Qdisc>, Box<dyn Qdisc>) {
    let forward: Box<dyn Qdisc> = Box::new(TracedQdisc::new(forward, taq));
    let reverse: Box<dyn Qdisc> = if taq {
        Box::new(TracedQdisc::new(reverse, true))
    } else {
        reverse
    };
    (forward, reverse)
}

/// A dumbbell with `disc` on the bottleneck, plain or mirrored.
fn dumbbell_case(
    label: &'static str,
    rate: Bandwidth,
    disc: Disc,
    seed: u64,
    horizon: SimTime,
    trace: bool,
) -> Case {
    let built = disc.spec(buffer_for(rate)).build(rate, seed);
    let topo = DumbbellConfig::with_rtt_200ms(rate);
    let (scenario, bottleneck) = if trace {
        let (forward, reverse) = wrap_pipe(built.forward, built.reverse, disc == Disc::Taq);
        let mut sim = Simulator::new(seed);
        let db = Dumbbell::build(&mut sim, topo, forward, reverse);
        let bottleneck = db.bottleneck;
        let m = Mirror::new(sim, Attach::Dumbbell(db), TcpConfig::default(), seed);
        (Scenario::Mirror(m), bottleneck)
    } else {
        let sc = DumbbellSpec::new(topo).build_with_reverse(seed, built.forward, built.reverse);
        let bottleneck = sc.db.bottleneck;
        (Scenario::Dumbbell(sc), bottleneck)
    };
    Case {
        label,
        scenario,
        disc,
        bottleneck,
        taq: built.taq,
        horizon,
        bulk_flows: 0,
        slices: None,
        counter: None,
        observer: None,
    }
}

/// The seed of replay `k` of a run; replay 0 uses the run's seed.
fn replay_seed(seed: u64, k: u64) -> u64 {
    seed ^ (k << 32)
}

/// Fig 1's inputs: the campus log for `seed`, grouped by client.
fn weblog_inputs(sizes: &Sizes, seed: u64) -> (Vec<Vec<LogEntry>>, SimTime) {
    let cfg = WebLogConfig::campus_two_hour(sizes.weblog_scale);
    let mut rng = SimRng::new(seed ^ 7);
    let log = weblog::generate(&cfg, &mut rng);
    let clients = weblog::by_client(&log).into_values().collect();
    let horizon = SimTime::ZERO + cfg.duration + SimDuration::from_secs(sizes.weblog_tail_s);
    (clients, horizon)
}

fn weblog_case(clients: &[Vec<LogEntry>], seed: u64, horizon: SimTime, trace: bool) -> Case {
    let rate = Bandwidth::from_bps(WEBLOG_RATE_BPS);
    let mut case = dumbbell_case("weblog", rate, Disc::Taq, seed, horizon, trace);
    for schedule in clients {
        match &mut case.scenario {
            Scenario::Dumbbell(sc) => {
                sc.add_scheduled_client(schedule, WEBLOG_PARALLEL, SimTime::ZERO);
            }
            Scenario::Mirror(m) => m.add_scheduled_client(schedule, WEBLOG_PARALLEL),
            Scenario::Topo(_) => unreachable!("web-log cases are dumbbells"),
        }
    }
    case
}

fn manyflow_cases(sizes: &Sizes, seed: u64, trace: bool) -> Vec<Case> {
    let rate = Bandwidth::from_bps(MANYFLOW_RATE_BPS);
    let horizon = SimTime::from_secs(sizes.manyflow_s);
    let mut cases = Vec::new();
    for (share, disc, label) in [
        (MANYFLOW_SHARES_BPS[0], Disc::Taq, "taq@2kbps"),
        (MANYFLOW_SHARES_BPS[0], Disc::DropTail, "droptail@2kbps"),
        (MANYFLOW_SHARES_BPS[1], Disc::Taq, "taq@20kbps"),
        (MANYFLOW_SHARES_BPS[1], Disc::DropTail, "droptail@20kbps"),
    ] {
        let flows = flows_for_fair_share(rate, share);
        let mut case = dumbbell_case(label, rate, disc, seed, horizon, trace);
        let bottleneck = case.bottleneck;
        let slices = SliceThroughput::new(bottleneck, SLICE);
        case.slices = Some(case.add_monitor(Box::new(slices), Op::MetricsMonitor, trace));
        let evolution = EvolutionTracker::new(bottleneck, SimDuration::from_secs(2));
        case.add_monitor(Box::new(evolution), Op::MetricsMonitor, trace);
        let stagger = SimDuration::from_secs(2);
        match &mut case.scenario {
            Scenario::Dumbbell(sc) => {
                sc.add_bulk_clients(flows, BULK_BYTES, stagger);
            }
            Scenario::Mirror(m) => m.add_bulk_clients(0, flows, stagger),
            Scenario::Topo(_) => unreachable!("many-flow cases are dumbbells"),
        }
        case.bulk_flows = flows;
        cases.push(case);
    }
    cases
}

/// The access tree of `bench_report`'s shard ladder: 4 leaves at
/// 800 kbps under a 2 Mbps TAQ uplink, three bulk clients per leaf.
fn tree_spec(shards: u32) -> AccessTreeSpec {
    let uplink = Bandwidth::from_mbps(2);
    let mut spec = AccessTreeSpec::new(4, uplink, Bandwidth::from_kbps(800)).shards(shards);
    spec.uplink_qdisc = QdiscSpec::taq(buffer_for(uplink));
    spec
}

fn tree_case(sizes: &Sizes, seed: u64, shards: u32, trace: bool) -> Case {
    let spec = tree_spec(shards);
    let horizon = SimTime::from_secs(sizes.tree_s);
    let (scenario, bottleneck, taq) = if trace {
        let topo_spec = spec.to_topology();
        let mut sim = Simulator::with_scheduler(seed, topo_spec.scheduler);
        let mut links = Vec::new();
        let mut qdiscs = Vec::new();
        let mut taq = None;
        for (i, p) in topo_spec.pipes.iter().enumerate() {
            let built = p.qdisc.build(p.rate, pipe_seed(seed, i as u64));
            let (forward, reverse) = wrap_pipe(built.forward, built.reverse, built.taq.is_some());
            qdiscs.push(forward);
            qdiscs.push(reverse);
            if i == 0 {
                taq = built.taq;
            }
            for (from, to) in [(p.a, p.b), (p.b, p.a)] {
                links.push(TopoLinkConfig {
                    from,
                    to,
                    rate: p.rate,
                    delay: p.delay,
                });
            }
        }
        let config = TopologyConfig {
            routers: topo_spec.routers,
            links,
            access_rate: topo_spec.access_rate,
            access_delay: topo_spec.access_delay,
        };
        let topo = Topology::build(&mut sim, config, qdiscs);
        let bottleneck = topo.link(0);
        let mut m = Mirror::new(sim, Attach::Topo(topo), topo_spec.tcp.clone(), seed);
        for leaf in 0..spec.leaves {
            m.add_bulk_clients(spec.leaf_router(leaf), spec.clients_per_leaf, spec.stagger);
        }
        if shards > 1 {
            // The plan depends only on the topology and where each host
            // hangs, which the mirror shares with the spec.
            m.plan = Some(spec.build(seed).shard_plan(shards));
        }
        (Scenario::Mirror(m), bottleneck, taq)
    } else {
        let sc = spec.build(seed);
        let (bottleneck, taq) = (sc.pipe_link(0), sc.taq_state(0).cloned());
        (Scenario::Topo(sc), bottleneck, taq)
    };
    Case {
        label: "tree",
        scenario,
        disc: Disc::Taq,
        bottleneck,
        taq,
        horizon,
        bulk_flows: 0,
        slices: None,
        counter: None,
        observer: None,
    }
}

/// Generates the inputs for `kind` from `seed` and builds its scenarios.
pub fn prepare(kind: Kind, sizes: &Sizes, seed: u64, opts: &RunOpts) -> Prepared {
    let trace = opts.trace;
    sys::reset_peak_heap();
    let allocs0 = sys::allocs();
    let (inputs, generate_s) = match kind {
        Kind::WeblogChurn | Kind::WeblogObserved => timed(trace, Op::Generate, || {
            (0..sizes.weblog_replays)
                .map(|k| weblog_inputs(sizes, replay_seed(seed, k)))
                .collect()
        }),
        Kind::ManyflowFairness | Kind::AccessTree => (Vec::new(), 0.0),
    };
    let (mut cases, build_s) = timed(trace, Op::Build, || match kind {
        Kind::ManyflowFairness => manyflow_cases(sizes, seed, trace),
        Kind::AccessTree => vec![tree_case(sizes, seed, opts.shards.unwrap_or(1), trace)],
        Kind::WeblogChurn | Kind::WeblogObserved => inputs
            .iter()
            .enumerate()
            .map(|(k, (clients, horizon))| {
                let mut case = weblog_case(clients, replay_seed(seed, k as u64), *horizon, trace);
                if kind == Kind::WeblogObserved {
                    case.observe(trace);
                }
                case
            })
            .collect(),
    });
    if trace {
        for case in &mut cases {
            let server = match &case.scenario {
                Scenario::Mirror(m) => m.server,
                _ => unreachable!("traced cases are mirrored"),
            };
            case.add_counter(server);
        }
    }
    Prepared {
        cases,
        trace,
        generate_s,
        build_s,
        setup_allocs: sys::allocs() - allocs0,
    }
}

/// What the telemetry pipeline did in an observed run.
#[derive(Debug, Clone, Default)]
pub struct TelemetryOutcome {
    /// Events that reached the sinks.
    pub events: u64,
    /// Ring entries spilled to the overflow list.
    pub overflowed: u64,
    /// Wall time from the end of each simulation until fully drained.
    pub drain_s: f64,
    /// Sink link events by kind ("enqueue", "drop", "transmit").
    pub link_events: BTreeMap<&'static str, u64>,
}

/// Link totals over every link of every case.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkTotals {
    /// Packets offered.
    pub offered: u64,
    /// Packets dropped by queues.
    pub dropped: u64,
    /// Packets lost on the wire.
    pub wire_lost: u64,
    /// Packets serialized.
    pub transmitted: u64,
}

/// Simulated outcomes; deterministic for a seed.
#[derive(Debug, Clone, Default)]
pub struct Outcomes {
    /// Mean 20 s-slice Jain index of the TAQ flows (many-flow only).
    pub jain_short: Option<f64>,
    /// Mean share of TAQ flows silent for a whole slice (many-flow only).
    pub shutout_frac: Option<f64>,
    /// The Jain index under DropTail, for comparison.
    pub droptail_jain_short: Option<f64>,
    /// The silent share under DropTail.
    pub droptail_shutout_frac: Option<f64>,
    /// Median download time (web-log only).
    pub download_p50_s: Option<f64>,
    /// 99th-percentile download time (web-log only).
    pub download_p99_s: Option<f64>,
    /// Completed downloads.
    pub downloads: u64,
    /// Mean utilisation of the TAQ bottlenecks.
    pub utilization: f64,
}

/// Counts from the benchmark's counting monitor (traced runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counted {
    /// Packets offered.
    pub enqueues: u64,
    /// Drops and wire losses.
    pub drops: u64,
    /// Packets serialized.
    pub transmits: u64,
    /// Packets handed to nodes.
    pub delivers: u64,
    /// Server data segments.
    pub segments: u64,
    /// Of those, retransmissions.
    pub retransmits: u64,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Input generation wall time.
    pub generate_s: f64,
    /// Scenario construction wall time.
    pub build_s: f64,
    /// Heap allocations during set-up.
    pub setup_allocs: u64,
    /// Wall time of the run phase.
    pub run_s: f64,
    /// Process CPU time of the run phase.
    pub cpu_s: f64,
    /// Wall time of the cases with TAQ on the bottleneck.
    pub taq_cases_s: f64,
    /// Wall time of the cases with DropTail on the bottleneck.
    pub droptail_cases_s: f64,
    /// Most heap bytes live at once from the start of set-up to the end
    /// of the run.
    pub peak_heap_bytes: u64,
    /// Simulator events.
    pub events: u64,
    /// Allocations and events over the second half of each case.
    pub steady: Steady,
    /// Digest of the flow logs, TAQ stats and link counters.
    pub digest: u64,
    /// Simulated outcomes.
    pub outcomes: Outcomes,
    /// Link totals.
    pub links: LinkTotals,
    /// Summed `TaqStats` of the TAQ bottlenecks.
    pub taq: TaqStats,
    /// Failed checks, described.
    pub failures: Vec<String>,
    /// Observed-run telemetry.
    pub telemetry: Option<TelemetryOutcome>,
    /// Counting-monitor totals (traced runs).
    pub counted: Option<Counted>,
}

fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn add_taq(total: &mut TaqStats, s: &TaqStats) {
    total.offered += s.offered;
    total.dropped += s.dropped;
    total.retransmissions_dropped += s.retransmissions_dropped;
    for (a, b) in total.drops_by_stage.iter_mut().zip(s.drops_by_stage) {
        *a += b;
    }
    for (a, b) in total.per_class.iter_mut().zip(s.per_class) {
        *a += b;
    }
    total.syns_rejected += s.syns_rejected;
}

fn hash_taq(h: &mut DefaultHasher, s: &TaqStats) {
    let scalars = [
        s.offered,
        s.dropped,
        s.retransmissions_dropped,
        s.syns_rejected,
    ];
    for v in scalars
        .into_iter()
        .chain(s.drops_by_stage)
        .chain(s.per_class)
    {
        h.write_u64(v);
    }
}

/// Runs a prepared workload and checks its outputs.
pub fn run(mut prepared: Prepared) -> RunResult {
    let trace = prepared.trace;
    let mut result = RunResult {
        generate_s: prepared.generate_s,
        build_s: prepared.build_s,
        setup_allocs: prepared.setup_allocs,
        ..RunResult::default()
    };
    let cpu0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let root = trace.then(open);
    for case in &mut prepared.cases {
        let case_t0 = Instant::now();
        let steady = case.run_observed(trace, &mut result.telemetry);
        let case_s = case_t0.elapsed().as_secs_f64();
        match case.disc {
            Disc::Taq => result.taq_cases_s += case_s,
            Disc::DropTail => result.droptail_cases_s += case_s,
        }
        result.steady.add(steady);
    }
    if let Some(span) = root {
        close(span, Op::Run);
    }
    result.run_s = t0.elapsed().as_secs_f64();
    result.cpu_s = sys::process_cpu_s() - cpu0;
    result.peak_heap_bytes = sys::peak_heap_bytes();
    inspect(&prepared, &mut result);
    result
}

/// Post-run reading and checking: conservation, outcomes, digest.
fn inspect(prepared: &Prepared, result: &mut RunResult) {
    let mut digest = DefaultHasher::new();
    let mut downloads = Vec::new();
    let mut util = Vec::new();
    let (mut jain, mut shutout, mut dt_jain, mut dt_shutout) = (vec![], vec![], vec![], vec![]);
    let mut counted = Counted::default();
    for case in &prepared.cases {
        let sim = case.sim();
        result.events += sim.events_processed();
        let mut case_links = LinkTotals::default();
        for l in 0..sim.link_count() {
            let link = LinkId(l as u32);
            let s = sim.link_stats(link);
            let queued = sim.link_qdisc(link).len() as u64;
            if s.offered_pkts != s.transmitted_pkts + s.dropped_pkts + s.wire_lost_pkts + queued {
                result.failures.push(format!(
                    "{}: link {l} does not conserve packets: offered {} != transmitted {} + dropped {} + lost {} + queued {queued}",
                    case.label, s.offered_pkts, s.transmitted_pkts, s.dropped_pkts, s.wire_lost_pkts
                ));
            }
            case_links.offered += s.offered_pkts;
            case_links.dropped += s.dropped_pkts;
            case_links.wire_lost += s.wire_lost_pkts;
            case_links.transmitted += s.transmitted_pkts;
            for v in [
                s.offered_pkts,
                s.offered_bytes,
                s.dropped_pkts,
                s.dropped_bytes,
                s.wire_lost_pkts,
                s.transmitted_pkts,
                s.transmitted_bytes,
                s.busy_time.as_nanos(),
            ] {
                digest.write_u64(v);
            }
        }
        if let Some(taq) = &case.taq {
            let stats = taq.lock().expect("TAQ state poisoned").stats.clone();
            hash_taq(&mut digest, &stats);
            add_taq(&mut result.taq, &stats);
        }
        {
            let mut log = case.log().lock().expect("flow log poisoned");
            log.sort_canonical();
            for r in &log.records {
                for v in [
                    u64::from(r.client.0),
                    u64::from(r.client_port),
                    r.tag,
                    r.bytes,
                    r.queued_at.as_nanos(),
                    r.first_syn_at.as_nanos(),
                    r.established_at.map_or(u64::MAX, |t| t.as_nanos()),
                    r.completed_at.map_or(u64::MAX, |t| t.as_nanos()),
                    u64::from(r.syn_retries),
                ] {
                    digest.write_u64(v);
                }
                if let Some(d) = r.download_time() {
                    downloads.push(d.as_secs_f64());
                }
            }
        }
        let elapsed = case.horizon.saturating_since(SimTime::ZERO);
        if case.disc == Disc::Taq {
            util.push(sim.link_stats(case.bottleneck).utilization(elapsed));
        }
        if let Some(id) = case.slices {
            let slices = monitor::<SliceThroughput>(sim, id);
            let n = (case.horizon.as_nanos() / SLICE.as_nanos()) as usize;
            let skip = SKIP_SLICES.min(n.saturating_sub(1));
            let flows = case.bulk_flows;
            let j = slices.mean_jain(skip, n, flows);
            let s = (skip..n)
                .map(|i| slices.shutout_fraction(i, flows))
                .sum::<f64>()
                / (n - skip).max(1) as f64;
            let (jains, shutouts) = match case.disc {
                Disc::Taq => (&mut jain, &mut shutout),
                Disc::DropTail => (&mut dt_jain, &mut dt_shutout),
            };
            jains.push(j);
            shutouts.push(s);
        }
        if let Some(id) = case.counter {
            let c = monitor::<CountingMonitor>(sim, id);
            counted.enqueues += c.enqueues;
            counted.drops += c.drops;
            counted.transmits += c.transmits;
            counted.delivers += c.delivers;
            counted.segments += c.segments;
            counted.retransmits += c.retransmits;
        }
        if let (Some(obs), Some(tel)) = (&case.observer, &mut result.telemetry) {
            check_sink(case.label, obs, &case_links, tel, &mut result.failures);
        }
        result.links.offered += case_links.offered;
        result.links.dropped += case_links.dropped;
        result.links.wire_lost += case_links.wire_lost;
        result.links.transmitted += case_links.transmitted;
    }
    result.digest = digest.finish();
    let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
    downloads.sort_by(f64::total_cmp);
    result.outcomes = Outcomes {
        jain_short: mean(&jain),
        shutout_frac: mean(&shutout),
        droptail_jain_short: mean(&dt_jain),
        droptail_shutout_frac: mean(&dt_shutout),
        download_p50_s: percentile(&downloads, 0.50),
        download_p99_s: percentile(&downloads, 0.99),
        downloads: downloads.len() as u64,
        utilization: mean(&util).unwrap_or(0.0),
    };
    if prepared.cases.iter().any(|c| c.counter.is_some()) {
        let l = &result.links;
        if counted.enqueues != l.offered
            || counted.drops != l.dropped + l.wire_lost
            || counted.transmits != l.transmitted
        {
            result.failures.push(format!(
                "counting monitor disagrees with LinkStats: {counted:?} vs {l:?}"
            ));
        }
        result.counted = Some(counted);
    }
}

/// Reads an observed case's sink and checks it saw every link event.
fn check_sink(
    label: &str,
    obs: &Observer,
    links: &LinkTotals,
    tel: &mut TelemetryOutcome,
    failures: &mut Vec<String>,
) {
    let stats = match &obs.sink {
        SinkHandle::Plain(s) => s.lock().expect("sink poisoned").stats().clone(),
        SinkHandle::Traced(s) => s.lock().expect("sink poisoned").inner.stats().clone(),
    };
    tel.events += stats.total_events();
    for (kind, n) in &stats.link_events {
        *tel.link_events.entry(kind).or_default() += n;
    }
    let seen = |k: &str| stats.link_events.get(k).copied().unwrap_or(0);
    if seen("enqueue") != links.offered
        || seen("drop") != links.dropped + links.wire_lost
        || seen("transmit") != links.transmitted
    {
        failures.push(format!(
            "{label}: sink link events {:?} disagree with LinkStats {links:?}",
            stats.link_events
        ));
    }
}

/// Builds and runs `kind` once.
pub fn run_once(kind: Kind, sizes: &Sizes, seed: u64, opts: &RunOpts) -> RunResult {
    run(prepare(kind, sizes, seed, opts))
}
