//! The four benchmark worlds: how each is built from its seed, advanced,
//! read back and checked.
//!
//! Every world is built through the program's public builders
//! (`netco_bench::flows`, `netco_bench::grid`, `netco_topogen`). The one
//! copy is [`build_flows_copy`]: `run_flow_world` hides its world, so
//! the traced run of `flows_1m` builds the same world here, and the
//! runner checks that both give the same witness.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use netco_adversary::MaliciousSwitch;
use netco_bench::flows::run_flow_world;
use netco_bench::grid::build_grid;
use netco_core::GuardSwitch;
use netco_harness::Pool;
use netco_net::{
    CpuModel, DropReason, GenericWorld, HostNic, LinkSpec, MacAddr, MemoStats, NeighborTable,
    NodeId, PortId, World,
};
use netco_openflow::OfSwitch;
use netco_sim::{SimDuration, SimTime};
use netco_topo::Profile;
use netco_topogen::generate::barabasi_albert;
use netco_topogen::{build_world, netcoize, AdversarySpec, NetcoizeSpec, NodeKind, TopoGraph};
use netco_traffic::{
    FlowSet, FlowSetConfig, FlowSink, IcmpEchoResponder, PingConfig, Pinger, SizeDist,
};

use crate::host::Sched;
use crate::trace::{self, Class, Tally, Traced};

/// Flows pre-spawned by `flows_1m`.
pub const FLOWS: usize = 1_000_000;
/// Simulated time `run_flow_world` advances.
const FLOWS_SIM: SimDuration = SimDuration::from_secs(2);
/// Lattice shape: rows of ping-pong hosts, NetCo cells per row.
const LATTICE_ROWS: usize = 16;
const LATTICE_CELLS: usize = 5;
const LATTICE_SIM: SimDuration = SimDuration::from_secs(1);
/// Barabási–Albert base graph: routers, links per new router, hosts.
const BA_ROUTERS: usize = 256;
const BA_M: usize = 2;
const BA_HOSTS: usize = 64;
/// Replicas per NetCo cell (prevent mode, majority of 2).
const BA_K: usize = 3;
/// Share of replica switches that corrupt every payload.
const BA_ADVERSARY_FRACTION: f64 = 0.2;
const BA_PAIRS: usize = 32;
const BA_PINGS: u32 = 400;
const BA_SIM: SimDuration = SimDuration::from_millis(500);
/// Workers and regions of the region-parallel runs of the BA world.
pub const PARALLEL_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M two-packet flows from one `FlowSet` into one `FlowSink`.
    Flows1m,
    /// 16 rows × 5 inband k=3 cells with honest replicas.
    Lattice16x5,
    /// NetCo-ized Barabási–Albert graph with 20% corrupting replicas.
    BaAdversarial,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Flows1m,
        Workload::Lattice16x5,
        Workload::BaAdversarial,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flows1m => "flows_1m",
            Workload::Lattice16x5 => "lattice_16x5",
            Workload::BaAdversarial => "ba_adversarial",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated time one run of the world advances.
    pub fn sim_time(self) -> SimDuration {
        match self {
            Workload::Flows1m => FLOWS_SIM,
            Workload::Lattice16x5 => LATTICE_SIM,
            Workload::BaAdversarial => BA_SIM,
        }
    }
}

/// What a finished world is reduced to for the repeat, traced and
/// executor equality checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Simulator events processed.
    pub events: u64,
    /// Digest of the world's end state (see [`Census::digest`]); for
    /// `flows_1m`, of the flow counts and the sink's order-sensitive
    /// arrival digest, the outputs `run_flow_world` exposes.
    pub digest: u64,
}

/// Operations attempted and failed in one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was wrong.
    pub failed: u64,
}

/// Host seconds of each set-up stage; zero where a workload has none.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Base graph generation.
    pub generate_s: f64,
    /// NetCo-ization of the base graph.
    pub netcoize_s: f64,
    /// Lowering the graph (or lattice) to a world.
    pub build_s: f64,
}

/// One untraced run of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host seconds from the seed to a world ready to advance.
    pub setup_s: f64,
    /// Host seconds advancing the world through its simulated time.
    pub wall_s: f64,
    /// Main-thread scheduler time over set-up and run.
    pub sched: Sched,
    /// Set-up stages.
    pub stages: Stages,
    /// End-state witness.
    pub witness: Witness,
    /// Operations.
    pub ops: Ops,
}

/// One traced run of a workload.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Host seconds advancing the traced world.
    pub wall_s: f64,
    /// Handler calls and busy time per [`Class::ALL`] entry.
    pub tallies: [Tally; Class::ALL.len()],
    /// Frame memo counters of the run, all threads.
    pub memo: MemoStats,
    /// Simulated outputs.
    pub census: Census,
    /// End-state witness.
    pub witness: Witness,
}

/// Summed device outputs and substrate counters of a finished world.
#[derive(Debug, Clone, Default)]
pub struct Census {
    /// Copies a guard's hub sent toward replicas.
    pub guard_hubbed: u64,
    /// Packets guards released after the vote.
    pub guard_released: u64,
    /// Copies the embedded compares received.
    pub compare_received: u64,
    /// Packets the compares released.
    pub compare_released: u64,
    /// Late copies ignored after release.
    pub compare_suppressed: u64,
    /// Compare entries that expired without a majority.
    pub compare_expired_unreleased: u64,
    /// Largest live-entry high-water mark of any one compare.
    pub compare_peak_cache_entries: u64,
    /// Frames OpenFlow switches forwarded.
    pub switch_forwarded: u64,
    /// Frames OpenFlow switches dropped.
    pub switch_dropped: u64,
    /// Frames adversarial replicas modified.
    pub adversary_modified: u64,
    /// Flows the `FlowSet` spawned.
    pub flows_spawned: u64,
    /// Flows that sent their last packet.
    pub flows_completed: u64,
    /// Packets the `FlowSet` emitted.
    pub flow_packets_sent: u64,
    /// Packets the `FlowSink` accepted.
    pub sink_packets: u64,
    /// The sink's order-sensitive arrival digest.
    pub sink_digest: u64,
    /// Echo requests sent.
    pub ping_transmitted: u64,
    /// Echo replies received.
    pub ping_received: u64,
    /// Sum over pingers of average RTT × replies, in nanoseconds.
    pub ping_rtt_ns_total: u128,
    /// Substrate drops per reason, in [`DROP_REASONS`] order.
    pub drops: [u64; DROP_REASONS.len()],
    /// Mix of every node's frame and byte counters.
    pub node_counters: u64,
}

/// Every substrate drop reason, in report order.
pub const DROP_REASONS: [DropReason; 6] = [
    DropReason::LinkQueueFull,
    DropReason::CpuQueueFull,
    DropReason::NoLink,
    DropReason::LinkDown,
    DropReason::NoControlChannel,
    DropReason::FaultInjected,
];

impl Census {
    fn scan(world: &World) -> Census {
        let mut c = Census::default();
        for i in 0..world.node_count() {
            let id = NodeId::from_index(i);
            let t = world.counters(id).total();
            c.node_counters = mix(
                c.node_counters,
                &[
                    t.rx_frames,
                    t.rx_bytes,
                    t.tx_frames,
                    t.tx_bytes,
                    t.tx_dropped,
                    t.rx_dropped,
                ],
            );
            if let Some(g) = world.device::<GuardSwitch>(id) {
                let s = g.stats();
                c.guard_hubbed += s.hubbed;
                c.guard_released += s.released;
                if let Some(cs) = g.embedded_compare_stats() {
                    c.compare_received += cs.received;
                    c.compare_released += cs.released;
                    c.compare_suppressed += cs.suppressed_duplicates;
                    c.compare_expired_unreleased += cs.expired_unreleased;
                    c.compare_peak_cache_entries =
                        c.compare_peak_cache_entries.max(cs.peak_cache_entries);
                }
            } else if let Some(sw) = world.device::<OfSwitch>(id) {
                let s = sw.stats();
                c.switch_forwarded += s.forwarded;
                c.switch_dropped += s.dropped;
            } else if let Some(m) = world.device::<MaliciousSwitch>(id) {
                c.adversary_modified += m.stats().modified;
            } else if let Some(f) = world.device::<FlowSet>(id) {
                let s = f.stats();
                c.flows_spawned += s.spawned;
                c.flows_completed += s.completed;
                c.flow_packets_sent += s.packets_sent;
            } else if let Some(s) = world.device::<FlowSink>(id) {
                c.sink_packets += s.packets();
                // The flows world has exactly one sink.
                c.sink_digest = s.digest();
            } else if let Some(p) = world.device::<Pinger>(id) {
                let r = p.report();
                c.ping_transmitted += u64::from(r.transmitted);
                c.ping_received += u64::from(r.received);
                let avg = r.avg.map_or(0, |d| d.as_nanos());
                c.ping_rtt_ns_total += u128::from(avg) * u128::from(r.received);
            }
        }
        for (slot, reason) in c.drops.iter_mut().zip(DROP_REASONS) {
            *slot = world.substrate_drops(reason);
        }
        c
    }

    /// Digest of the end state: every node's counters, every device
    /// output above, the substrate drops, the event count and the clock.
    fn digest(&self, events: u64, now: SimTime) -> u64 {
        let fields = [
            self.guard_hubbed,
            self.guard_released,
            self.compare_received,
            self.compare_released,
            self.compare_suppressed,
            self.compare_expired_unreleased,
            self.compare_peak_cache_entries,
            self.switch_forwarded,
            self.switch_dropped,
            self.adversary_modified,
            self.flows_spawned,
            self.flows_completed,
            self.flow_packets_sent,
            self.sink_packets,
            self.sink_digest,
            self.ping_transmitted,
            self.ping_received,
            self.ping_rtt_ns_total as u64,
            (self.ping_rtt_ns_total >> 64) as u64,
            self.node_counters,
            events,
            now.as_nanos(),
        ];
        mix(mix(0, &fields), &self.drops)
    }

    /// Mean RTT over every reply, in microseconds.
    pub fn ping_rtt_avg_us(&self) -> f64 {
        if self.ping_received == 0 {
            0.0
        } else {
            self.ping_rtt_ns_total as f64 / self.ping_received as f64 / 1e3
        }
    }
}

/// Witness of a `flows_1m` world, from the outputs `run_flow_world`
/// reports.
fn flows_witness(events: u64, spawned: u64, completed: u64, packets: u64, digest: u64) -> Witness {
    Witness {
        events,
        digest: mix(0, &[spawned, completed, packets, digest]),
    }
}

/// Every flow completes and delivers two packets.
fn flows_ops(spawned: u64, completed: u64, packets: u64) -> Result<Ops, String> {
    if spawned != FLOWS as u64 || completed != spawned || packets != 2 * completed {
        return Err(format!(
            "flows_1m: {spawned} flows spawned, {completed} completed, {packets} packets \
             delivered; want {FLOWS}, {FLOWS} and {}",
            2 * FLOWS
        ));
    }
    Ok(Ops {
        attempted: spawned,
        failed: spawned - completed,
    })
}

/// What the checks need besides the world.
enum Probe {
    /// The flows world needs nothing: its census says it all.
    Flows,
    /// `(west, east)` host pair per lattice row.
    Lattice(Vec<(NodeId, NodeId)>),
    /// Pinger node and whether its pair's round trip keeps its bytes
    /// intact, per ping pair.
    Ba(Vec<(NodeId, bool)>),
}

/// A built world, not yet advanced past time zero.
struct Prepared {
    world: World,
    probe: Probe,
    stages: Stages,
}

impl Prepared {
    fn build(workload: Workload, seed: u64) -> Prepared {
        match workload {
            Workload::Flows1m => build_flows_copy(seed),
            Workload::Lattice16x5 => {
                let start = Instant::now();
                let grid = build_grid(LATTICE_ROWS, LATTICE_CELLS, seed);
                let build_s = start.elapsed().as_secs_f64();
                Prepared {
                    world: grid.world,
                    probe: Probe::Lattice(grid.hosts),
                    stages: Stages {
                        build_s,
                        ..Stages::default()
                    },
                }
            }
            Workload::BaAdversarial => build_ba(seed),
        }
    }

    /// Reads the finished world back, checks it and reduces it to a
    /// witness and an operation count.
    fn verify(&self, workload: Workload) -> Result<(Census, Witness, Ops), String> {
        let census = Census::scan(&self.world);
        let events = self.world.events_processed();
        let name = workload.name();
        let (witness, ops) = match &self.probe {
            Probe::Flows => (
                flows_witness(
                    events,
                    census.flows_spawned,
                    census.flows_completed,
                    census.sink_packets,
                    census.sink_digest,
                ),
                flows_ops(
                    census.flows_spawned,
                    census.flows_completed,
                    census.sink_packets,
                )?,
            ),
            Probe::Lattice(hosts) => {
                let mut sent = 0;
                let mut received = 0;
                for &(west, east) in hosts {
                    for id in [west, east] {
                        let t = self.world.counters(id).total();
                        if t.rx_frames == 0 {
                            return Err(format!("{name}: host {id} received no traffic"));
                        }
                        sent += t.tx_frames;
                        received += t.rx_frames;
                    }
                }
                let dropped: u64 = census.drops.iter().sum();
                if dropped + census.switch_dropped + census.compare_expired_unreleased > 0 {
                    return Err(format!(
                        "{name}: {dropped} substrate drops, {} switch drops, {} compare \
                         entries expired unreleased; want none",
                        census.switch_dropped, census.compare_expired_unreleased
                    ));
                }
                // Each row's ping-pong keeps exactly one frame in flight.
                let in_flight = hosts.len() as u64;
                let attempted = sent.saturating_sub(in_flight);
                (
                    Witness {
                        events,
                        digest: census.digest(events, self.world.now()),
                    },
                    Ops {
                        attempted,
                        failed: attempted.saturating_sub(received),
                    },
                )
            }
            Probe::Ba(pairs) => {
                let mut ops = Ops {
                    attempted: 0,
                    failed: 0,
                };
                for &(pinger, intact) in pairs {
                    let r = self
                        .world
                        .device::<Pinger>(pinger)
                        .expect("pinger")
                        .report();
                    if r.transmitted != BA_PINGS {
                        return Err(format!(
                            "{name}: pinger {pinger} sent {} of {BA_PINGS} requests",
                            r.transmitted
                        ));
                    }
                    ops.attempted += u64::from(r.transmitted);
                    // A ping fails when its fate contradicts the vote: lost
                    // on an intact round trip, or answered on a corrupted
                    // one.
                    ops.failed += u64::from(if intact {
                        r.transmitted - r.received
                    } else {
                        r.received
                    });
                }
                (
                    Witness {
                        events,
                        digest: census.digest(events, self.world.now()),
                    },
                    ops,
                )
            }
        };
        Ok((census, witness, ops))
    }
}

/// Runs one untraced rep: builds the world, runs its start hooks (to
/// simulated time zero), then advances it through its simulated time,
/// sequentially or, given a pool, on the region-parallel executor with
/// [`PARALLEL_WORKERS`] regions (not for `flows_1m`).
pub fn untraced_rep(workload: Workload, seed: u64, pool: Option<&Pool>) -> Result<Rep, String> {
    netco_net::reset_memo_stats();
    netco_net::reset_memo_stats_merged();
    let sched = Sched::now();
    if workload == Workload::Flows1m {
        // `run_flow_world` times its own run; everything else in the call
        // is set-up (world build, device-table conversion) and teardown.
        let start = Instant::now();
        let out = run_flow_world(FLOWS, seed);
        let total_s = start.elapsed().as_secs_f64();
        let wall_s = out.wall_nanos as f64 / 1e9;
        return Ok(Rep {
            setup_s: total_s - wall_s,
            wall_s,
            sched: Sched::now().since(sched),
            stages: Stages::default(),
            witness: flows_witness(
                out.events,
                out.spawned,
                out.completed,
                out.packets,
                out.digest,
            ),
            ops: flows_ops(out.spawned, out.completed, out.packets)?,
        });
    }
    let start = Instant::now();
    let mut p = Prepared::build(workload, seed);
    p.world.run_until(SimTime::ZERO);
    let setup_s = start.elapsed().as_secs_f64();
    let deadline = SimTime::ZERO.saturating_add(workload.sim_time());
    let start = Instant::now();
    match pool {
        Some(pool) => p.world.run_until_parallel(deadline, pool, PARALLEL_WORKERS),
        None => p.world.run_until(deadline),
    }
    let wall_s = start.elapsed().as_secs_f64();
    let sched = Sched::now().since(sched);
    let (_, witness, ops) = p.verify(workload)?;
    Ok(Rep {
        setup_s,
        wall_s,
        sched,
        stages: p.stages,
        witness,
        ops,
    })
}

/// Host seconds to build the world and run its start hooks, as
/// [`untraced_rep`] measures them, without advancing it further.
/// Not for `flows_1m`, whose set-up happens inside `run_flow_world`.
pub fn setup_only(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let mut p = Prepared::build(workload, seed);
    p.world.run_until(SimTime::ZERO);
    let setup_s = start.elapsed().as_secs_f64();
    drop(p);
    setup_s
}

/// Runs the workload's world once more, sequentially, with every
/// handler call timed (see [`crate::trace`]).
pub fn traced_run(workload: Workload, seed: u64) -> Result<TracedRun, String> {
    trace::set_unknown_class(if workload == Workload::Lattice16x5 {
        Class::PingPong
    } else {
        Class::Other
    });
    let Prepared {
        mut world,
        probe,
        stages,
    } = Prepared::build(workload, seed);
    // `run_flow_world` times its start hooks; the other worlds run theirs
    // during set-up.
    if workload != Workload::Flows1m {
        world.run_until(SimTime::ZERO);
    }
    trace::take_totals();
    netco_net::reset_memo_stats();
    netco_net::reset_memo_stats_merged();
    let mut traced: GenericWorld<Traced> = world.map_devices();
    let start = Instant::now();
    traced.run_for(workload.sim_time());
    let wall_s = start.elapsed().as_secs_f64();
    let memo = netco_net::memo_stats_merged();
    let p = Prepared {
        world: traced.map_devices(),
        probe,
        stages,
    };
    let tallies = trace::take_totals();
    let (census, witness, _) = p.verify(workload)?;
    Ok(TracedRun {
        wall_s,
        tallies,
        memo,
        census,
        witness,
    })
}

/// The `flows_1m` world exactly as `run_flow_world` builds it, as a
/// plain `World` the traced run can wrap.
fn build_flows_copy(seed: u64) -> Prepared {
    let src_ip = Ipv4Addr::new(10, 9, 0, 1);
    let dst_ip = Ipv4Addr::new(10, 9, 0, 2);
    let table: NeighborTable = [(src_ip, MacAddr::local(1)), (dst_ip, MacAddr::local(2))]
        .into_iter()
        .collect();
    let mut na = HostNic::new(MacAddr::local(1), src_ip);
    na.neighbors = table.clone();
    let mut nb = HostNic::new(MacAddr::local(2), dst_ip);
    nb.neighbors = table;
    let cfg = FlowSetConfig::new(dst_ip)
        .with_initial_flows(FLOWS)
        .with_arrival_rate(0.0)
        .with_size_dist(SizeDist::Fixed(2_400))
        .with_payload_len(1_200)
        .with_flow_rate(10_000_000)
        .with_start_spread(SimDuration::from_millis(800))
        .with_frame_cache(true);
    let mut world = World::new(seed);
    let src = world.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
    let dst = world.add_node("sink", FlowSink::new(nb), CpuModel::default());
    world.connect(
        src,
        PortId(0),
        dst,
        PortId(0),
        LinkSpec::new(400_000_000_000, SimDuration::from_micros(5)),
    );
    Prepared {
        world,
        probe: Probe::Flows,
        stages: Stages::default(),
    }
}

/// The Barabási–Albert world: generate, NetCo-ize every router at k=3,
/// corrupt a seeded 20% of the replicas, and ping between host pairs
/// `(2p, 2p+1)`; every other host answers echo requests.
fn build_ba(seed: u64) -> Prepared {
    let start = Instant::now();
    let base = barabasi_albert(BA_ROUTERS, BA_M, BA_HOSTS, seed);
    let generated = Instant::now();
    let graph = netcoize(&base, &NetcoizeSpec::full(BA_K, seed));
    let netcoized = Instant::now();
    let adversary = AdversarySpec {
        fraction: BA_ADVERSARY_FRACTION,
        seed: mix(seed, &[0xad]),
        every_nth: 1,
    };
    let built = build_world(
        &graph,
        &Profile::default(),
        mix(seed, &[0x77]),
        |h, nic| {
            let pair = h / 2;
            if h % 2 == 0 && pair < BA_PAIRS {
                Box::new(Pinger::new(
                    nic,
                    PingConfig {
                        dst_ip: graph.hosts[h + 1].ip,
                        count: BA_PINGS,
                        interval: SimDuration::from_millis(1),
                        payload_len: 56,
                        identifier: pair as u16 + 1,
                        start_after: SimDuration::from_micros((pair as u64 % 16) * 500),
                    },
                ))
            } else {
                Box::new(IcmpEchoResponder::new(nic))
            }
        },
        Some(&adversary),
    );
    let stages = Stages {
        generate_s: (generated - start).as_secs_f64(),
        netcoize_s: (netcoized - generated).as_secs_f64(),
        build_s: netcoized.elapsed().as_secs_f64(),
    };
    let oracle = CorruptionOracle::new(&graph, &built.adversarial);
    let pairs = (0..BA_PAIRS)
        .map(|p| {
            let (a, b) = (2 * p, 2 * p + 1);
            let intact = oracle.intact(a, b) && oracle.intact(b, a);
            (built.host_ids[a], intact)
        })
        .collect();
    Prepared {
        world: built.world,
        probe: Probe::Ba(pairs),
        stages,
    }
}

/// Predicts whether a frame from one host reaches another with its bytes
/// intact, from the graph alone.
///
/// An adversarial replica flips the frame's last byte. A k=3 prevent
/// cell releases the first content two replicas agree on: with at most
/// one adversarial replica that is the frame as it entered; with two or
/// three it is the frame with its last byte flipped. Two flips cancel, so
/// a frame arrives intact iff it crosses an even number of cells holding
/// two or more adversarial replicas. Hosts drop frames whose ICMP
/// checksum fails, so a ping is answered iff both directions are intact.
struct CorruptionOracle<'a> {
    graph: &'a TopoGraph,
    adversarial: &'a [usize],
    /// `(node, port)` → `(peer node, peer port)`.
    far: HashMap<(usize, u16), (usize, u16)>,
}

impl<'a> CorruptionOracle<'a> {
    fn new(graph: &'a TopoGraph, adversarial: &'a [usize]) -> Self {
        let mut far = HashMap::new();
        for l in &graph.links {
            far.insert((l.a, l.a_port), (l.b, l.b_port));
            far.insert((l.b, l.b_port), (l.a, l.a_port));
        }
        CorruptionOracle {
            graph,
            adversarial,
            far,
        }
    }

    /// Walks the installed routes from host `src` to host `dst` the way
    /// `TopoGraph::route_hops` does and counts the flips on the way.
    fn intact(&self, src: usize, dst: usize) -> bool {
        let g = self.graph;
        let dst_attach = (g.hosts[dst].attach, g.hosts[dst].attach_port);
        let mut node = g.hosts[src].attach;
        let mut in_port = g.hosts[src].attach_port;
        let mut flips = 0;
        for _ in 0..g.nodes.len() * 4 + 8 {
            let out = match g.nodes[node].kind {
                NodeKind::Guard { k, .. } if in_port == 0 => {
                    let bad = (1..=k as u16)
                        .filter(|&p| {
                            let replica = self.far[&(node, p)].0;
                            self.adversarial.binary_search(&replica).is_ok()
                        })
                        .count();
                    if 2 * bad > k {
                        flips += 1;
                    }
                    1
                }
                NodeKind::Guard { .. } => 0,
                NodeKind::Router | NodeKind::Replica { .. } => g.routes[node][dst],
            };
            if (node, out) == dst_attach {
                return flips % 2 == 0;
            }
            (node, in_port) = self.far[&(node, out)];
        }
        panic!("no route from host {src} to host {dst}");
    }
}

/// Order-sensitive splitmix64 fold of `values` into `acc`.
fn mix(acc: u64, values: &[u64]) -> u64 {
    values.iter().fold(acc, |acc, &v| {
        let mut z = (acc ^ v).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    })
}
