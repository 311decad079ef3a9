//! Pins the `FlowSet` engine's emission order bit for bit.
//!
//! Every packet a `FlowSet` emits is folded into its order-sensitive
//! [`FlowSetStats::digest`], and every packet the sink accepts into
//! [`FlowSink::digest`]. The values below were recorded from the
//! binary-heap scheduler the engine used before its queues were replaced
//! by a sorted start run and two FIFOs; any change to which flow sends at
//! which instant moves them. Each case stresses one way the queues can
//! interleave: staggered starts, tied start times, Poisson arrivals mixed
//! with paced re-sends, a zero pacing gap, and tagged payloads.

use std::net::Ipv4Addr;

use netco_net::{CpuModel, HostNic, LinkSpec, MacAddr, NeighborTable, PortId, World};
use netco_sim::SimDuration;
use netco_traffic::{FlowSet, FlowSetConfig, FlowSetStats, FlowSink, SizeDist};

const SRC_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const DST_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

/// Everything one run pins: the engine's stats, the sink's packet count
/// and digest, and the world's event count.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    stats: FlowSetStats,
    sink_packets: u64,
    sink_digest: u64,
    events: u64,
}

/// Runs `cfg` from one engine into one sink over a 10 Gbit/s, 5 µs link
/// for `ms` simulated milliseconds.
fn run(seed: u64, cfg: FlowSetConfig, ms: u64) -> Pin {
    let table: NeighborTable = [(SRC_IP, MacAddr::local(1)), (DST_IP, MacAddr::local(2))]
        .into_iter()
        .collect();
    let mut na = HostNic::new(MacAddr::local(1), SRC_IP);
    na.neighbors = table.clone();
    let mut nb = HostNic::new(MacAddr::local(2), DST_IP);
    nb.neighbors = table;
    let mut w = World::new(seed);
    let src = w.add_node("flows", FlowSet::new(na, cfg), CpuModel::default());
    let dst = w.add_node("sink", FlowSink::new(nb), CpuModel::default());
    w.connect(
        src,
        PortId(0),
        dst,
        PortId(0),
        LinkSpec::new(10_000_000_000, SimDuration::from_micros(5)),
    );
    w.run_for(SimDuration::from_millis(ms));
    let sink = w.device::<FlowSink>(dst).unwrap();
    Pin {
        stats: w.device::<FlowSet>(src).unwrap().stats(),
        sink_packets: sink.packets(),
        sink_digest: sink.digest(),
        events: w.events_processed(),
    }
}

/// The expected [`Pin`], fields in declaration order; `active` is
/// derived as `spawned - completed`.
#[allow(clippy::too_many_arguments)]
fn pin(
    spawned: u64,
    completed: u64,
    packets_sent: u64,
    bytes_sent: u64,
    digest: u64,
    sink_packets: u64,
    sink_digest: u64,
    events: u64,
) -> Pin {
    Pin {
        stats: FlowSetStats {
            spawned,
            completed,
            active: spawned - completed,
            packets_sent,
            bytes_sent,
            digest,
        },
        sink_packets,
        sink_digest,
        events,
    }
}

#[test]
fn prespawned_staggered_flows_are_pinned() {
    // The template-frame cache changes how a frame is built, never its
    // bytes: the pin holds with the cache on (the default) and off.
    for frame_cache in [true, false] {
        let cfg = FlowSetConfig::new(DST_IP)
            .with_initial_flows(3_000)
            .with_arrival_rate(0.0)
            .with_size_dist(SizeDist::Pareto {
                alpha: 1.3,
                min_bytes: 2_000,
            })
            .with_payload_len(1_000)
            .with_flow_rate(20_000_000)
            .with_start_spread(SimDuration::from_millis(40))
            .with_frame_cache(frame_cache);
        assert_eq!(
            run(5, cfg, 300),
            pin(
                3000,
                2998,
                24653,
                22995568,
                0x05c4f1bcce928e49,
                24653,
                0xdc34d9ce090700ab,
                98615
            ),
            "frame_cache = {frame_cache}"
        );
    }
}

#[test]
fn tied_start_times_are_pinned() {
    // A zero spread gives every pre-spawned flow the same first deadline,
    // so only the spawn order decides who sends first. The burst overflows
    // the link queue, so the sink sees fewer packets than were sent.
    let cfg = FlowSetConfig::new(DST_IP)
        .with_initial_flows(2_000)
        .with_arrival_rate(0.0)
        .with_size_dist(SizeDist::Fixed(2_400))
        .with_payload_len(1_200)
        .with_start_spread(SimDuration::ZERO);
    assert_eq!(
        run(9, cfg, 100),
        pin(
            2000,
            2000,
            4000,
            4800000,
            0xebfa24e5f0d7f1b3,
            844,
            0xeb8fb501849c3b25,
            2537
        )
    );
}

#[test]
fn poisson_pareto_arrivals_are_pinned() {
    let cfg = FlowSetConfig::new(DST_IP)
        .with_arrival_rate(400.0)
        .with_arrival_window(SimDuration::from_secs(1))
        .with_size_dist(SizeDist::Pareto {
            alpha: 1.2,
            min_bytes: 3_000,
        })
        .with_payload_len(1_000)
        .with_flow_rate(30_000_000);
    assert_eq!(
        run(42, cfg, 1_500),
        pin(
            445,
            445,
            5281,
            5035694,
            0x96e6b1afe2021d2c,
            5281,
            0xebfedc5ef5486d1c,
            21900
        )
    );
}

#[test]
fn poisson_lognormal_arrivals_with_prespawned_flows_are_pinned() {
    // All three sources at once: staggered pre-spawned flows, Poisson
    // arrivals, and the paced re-sends of both.
    let cfg = FlowSetConfig::new(DST_IP)
        .with_initial_flows(300)
        .with_arrival_rate(600.0)
        .with_arrival_window(SimDuration::from_millis(800))
        .with_size_dist(SizeDist::Lognormal {
            mu: 9.0,
            sigma: 1.0,
        })
        .with_payload_len(1_200)
        .with_flow_rate(15_000_000)
        .with_start_spread(SimDuration::from_millis(20));
    assert_eq!(
        run(3, cfg, 1_200),
        pin(
            799,
            799,
            9110,
            10446329,
            0x49ebc9c90d1b22cb,
            9110,
            0x473f166fda9946fe,
            37431
        )
    );
}

#[test]
fn zero_pacing_gap_is_pinned() {
    // At this rate `packet_gap()` rounds to 0 ns: each re-send is due at
    // the same instant, and the engine yields after it.
    let cfg = FlowSetConfig::new(DST_IP)
        .with_initial_flows(50)
        .with_arrival_rate(200.0)
        .with_arrival_window(SimDuration::from_millis(100))
        .with_size_dist(SizeDist::Lognormal {
            mu: 8.5,
            sigma: 0.5,
        })
        .with_payload_len(1_000)
        .with_flow_rate(u64::MAX)
        .with_start_spread(SimDuration::from_millis(5));
    assert_eq!(
        run(11, cfg, 200),
        pin(
            78,
            78,
            507,
            469254,
            0xcf12fcfec2524bcc,
            507,
            0xfd7f0823933bc3bd,
            2061
        )
    );
}

#[test]
fn tagged_payloads_are_pinned() {
    let cfg = FlowSetConfig::new(DST_IP)
        .with_initial_flows(100)
        .with_arrival_rate(300.0)
        .with_arrival_window(SimDuration::from_millis(500))
        .with_size_dist(SizeDist::Pareto {
            alpha: 1.3,
            min_bytes: 2_000,
        })
        .with_payload_len(1_000)
        .with_flow_rate(25_000_000)
        .with_tagged_payload(true);
    assert_eq!(
        run(21, cfg, 800),
        pin(
            253,
            253,
            2494,
            2363880,
            0x5246650e6784ab86,
            2494,
            0xf4f1b54945cbcb74,
            10249
        )
    );
}
