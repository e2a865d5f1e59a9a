//! Layer replays: each layer's public functions driven directly, with
//! inputs drawn from the workload's own spec and seed, timed from the
//! benchmark's side of the call. Nothing inside the program is
//! instrumented; a replay isolates one layer's host cost per
//! operation.

use crate::clock::median;
use crate::workloads::Workload;
use crate::Metric;
use nectar_cab::board::CabId;
use nectar_cab::checksum::fletcher16;
use nectar_cab::dma::{Channel, DmaController};
use nectar_cab::timings::CabTimings;
use nectar_core::prelude::*;
use nectar_hub::prelude::*;
use nectar_kernel::mailbox::{Mailbox, Message};
use nectar_kernel::thread::Scheduler;
use nectar_proto::header::{Header, PacketKind, HEADER_BYTES, MAX_FRAGMENT_PAYLOAD};
use nectar_proto::transport::bytestream::ByteStream;
use nectar_proto::transport::datagram::Datagram;
use nectar_proto::transport::reqresp::{ReqRespClient, ReqRespServer};
use nectar_proto::transport::Action;
use nectar_sim::analysis::diagnose;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::engine::Engine;
use nectar_sim::rng::Rng;
use nectar_sim::telemetry::TelemetryEvent;
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::{Shape, WorkloadSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed batches per replay; each replay reports the median batch.
const BATCHES: usize = 5;

/// Flows drawn from the workload generator per replay input set.
const FLOWS: usize = 4096;

/// Engine events the telemetry capture for the analysis replays runs.
const CAPTURE_EVENTS: u64 = 100_000;

/// One flow of the workload: source, destination, payload bytes.
#[derive(Clone, Copy)]
struct Flow {
    src: u16,
    dst: u16,
    bytes: u32,
}

/// Median over [`BATCHES`] of host nanoseconds per operation; `batch`
/// runs one batch and returns how many operations it did.
fn ns_per_op(mut batch: impl FnMut() -> u64) -> f64 {
    self_timed(|| {
        let t = Instant::now();
        let ops = black_box(batch());
        (ops, t.elapsed().as_nanos())
    })
}

/// [`ns_per_op`] for a batch that times its own measured part (to
/// leave input construction out) and returns `(operations, ns)`.
fn self_timed(mut batch: impl FnMut() -> (u64, u128)) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ops, ns) = batch();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&per_op)
}

/// Draws [`FLOWS`] flows from the compiled spec, round-robin over
/// classes and source CABs, as the world's generator would issue them.
/// Returns the flows, the host ns per draw, and the median host ns of
/// `WorkloadSpec::compile` itself.
fn draw_flows(topo: &Topology, spec: &WorkloadSpec) -> (Vec<Flow>, f64, f64) {
    let cabs = topo.cab_count();
    let cluster_of: Vec<u16> = (0..cabs).map(|c| topo.cab_attachment(c).0 as u16).collect();
    let mut flows = Vec::with_capacity(FLOWS);
    let mut compiles = Vec::new();
    let per_flow = self_timed(|| {
        let t = Instant::now();
        let mut generator = spec.compile(cluster_of.clone()).expect("preset compiles");
        compiles.push(t.elapsed().as_nanos() as f64);
        flows.clear();
        let t = Instant::now();
        let mut i = 0;
        while flows.len() < FLOWS {
            let class = i % generator.class_count();
            let src = ((i / generator.class_count()) % cabs) as u16;
            let spec = *generator.class(class);
            let f = match spec.shape {
                Shape::Closed { .. } => generator.closed_flow(class, src),
                Shape::Open { .. } => generator.next_open(class, src).0,
            };
            flows.push(Flow { src, dst: f.dst, bytes: f.bytes });
            i += 1;
        }
        (flows.len() as u64, t.elapsed().as_nanos())
    });
    (flows, per_flow, median(&compiles))
}

/// Single-packet payload size of a flow (datagrams and RPCs never
/// exceed one packet; stream flows fragment to this size).
fn packet_bytes(f: &Flow) -> usize {
    (f.bytes as usize).min(MAX_FRAGMENT_PAYLOAD)
}

/// Engine hold model at the run's peak queue length: pop the earliest
/// event, schedule one in its place at a delay drawn from the seed.
fn engine(pending: usize, seed: u64) -> f64 {
    let mut rng = Rng::seed_from(seed);
    let mut eng: Engine<u32> = Engine::with_capacity(pending.max(1));
    for k in 0..pending.max(1) as u64 {
        eng.schedule_at_keyed(Time::from_nanos(rng.range(0..=1_000_000)), k, k as u32);
    }
    let delays: Vec<Dur> = (0..1 << 16).map(|_| Dur::from_nanos(rng.range(1..=100_000))).collect();
    let mut key = pending as u64;
    ns_per_op(|| {
        for d in &delays {
            let ev = eng.step().expect("hold model keeps the queue full");
            key += 1;
            eng.schedule_at_keyed(eng.now() + *d, key, ev);
        }
        delays.len() as u64
    })
}

/// The HUB a flow's source CAB attaches to, driven through
/// `item_arrives` / `internal` / `ready_signal_arrives` with every flow
/// from that cluster as a packet-switched test-open, data, close-all
/// burst. Downstream ready signals return one transit after each
/// packet leaves.
fn hub(topo: &Topology, flows: &[Flow]) -> f64 {
    enum HubEv {
        Arrive(PortId, Item),
        Internal(InternalEv),
        Ready(PortId),
    }
    let cfg = SystemConfig::default().hub;
    let home = topo.cab_attachment(flows[0].src as usize).0;
    let local: Vec<&Flow> =
        flows.iter().filter(|f| topo.cab_attachment(f.src as usize).0 == home).collect();
    let build = || {
        let mut eng: Engine<HubEv> = Engine::new();
        let mut port_free: Vec<Time> = vec![Time::ZERO; topo.ports_per_hub()];
        for (id, f) in local.iter().enumerate() {
            let route = topo.route(f.src as usize, f.dst as usize).expect("mesh is connected");
            let wire = vec![0u8; HEADER_BYTES + packet_bytes(f)];
            let port = topo.cab_attachment(f.src as usize).1;
            let at = &mut port_free[port.index()];
            for item in
                route.packet_switched_items(Packet::new(id as u64, wire), cfg.queue_capacity)
            {
                let bytes = item.wire_bytes();
                eng.schedule_at(*at, HubEv::Arrive(port, item));
                *at += cfg.wire_time(bytes);
            }
        }
        eng
    };
    let mut fx = Effects::new();
    self_timed(|| {
        let mut eng = build();
        let mut hub = Hub::new(HubId::new(home as u8), cfg.clone());
        let t = Instant::now();
        while let Some(ev) = eng.step() {
            let now = eng.now();
            fx.clear();
            match ev {
                HubEv::Arrive(port, item) => hub.item_arrives(now, port, item, &mut fx),
                HubEv::Internal(ie) => hub.internal(now, ie, &mut fx),
                HubEv::Ready(port) => hub.ready_signal_arrives(now, port, &mut fx),
            }
            for i in fx.internal.drain(..) {
                eng.schedule_at(i.at, HubEv::Internal(i.ev));
            }
            for e in fx.emissions.drain(..) {
                if matches!(e.item, Item::Packet(_)) {
                    eng.schedule_at(e.at + cfg.transit, HubEv::Ready(e.port));
                }
            }
        }
        black_box(hub.counters().packets_forwarded);
        (local.len() as u64, t.elapsed().as_nanos())
    })
}

/// Fletcher-16 over each flow's payload, per KiB checksummed.
fn checksum(flows: &[Flow]) -> f64 {
    let bufs: Vec<Vec<u8>> = flows.iter().map(|f| vec![0u8; f.bytes as usize]).collect();
    let kib = bufs.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0;
    let per_flow = ns_per_op(|| {
        let mut acc = 0u16;
        for b in &bufs {
            acc ^= fletcher16(black_box(b));
        }
        black_box(acc);
        bufs.len() as u64
    });
    per_flow * bufs.len() as f64 / kib
}

/// `DmaController::start` on the fiber-out channel, one transfer per
/// packet of each flow.
fn dma(flows: &[Flow]) -> f64 {
    ns_per_op(|| {
        let mut dma = DmaController::new(CabTimings::prototype());
        let mut now = Time::ZERO;
        for f in flows {
            let t = dma.start(now, Channel::FiberOut, HEADER_BYTES + packet_bytes(f));
            now = t.start;
        }
        black_box(dma.bytes_moved());
        flows.len() as u64
    })
}

/// `Mailbox::append` then `take_next`, one message per flow, in
/// batches of 64 queued messages.
fn mailbox(flows: &[Flow]) -> f64 {
    let payloads: Vec<Arc<[u8]>> =
        flows.iter().map(|f| Arc::from(vec![0u8; packet_bytes(f)])).collect();
    ns_per_op(|| {
        let mut mb = Mailbox::new("bench", 256 * 1024);
        for chunk in payloads.chunks(64) {
            for (i, p) in chunk.iter().enumerate() {
                mb.append(Message::new(i as u64, 0, p.clone())).expect("64 packets fit");
            }
            while let Some(m) = mb.take_next() {
                black_box(m.len());
            }
        }
        payloads.len() as u64
    })
}

/// `Scheduler::run`: each flow charges its destination's handler
/// thread a burst proportional to its size, so thread switches follow
/// the workload's destination mix.
fn scheduler(flows: &[Flow]) -> f64 {
    ns_per_op(|| {
        let mut sched = Scheduler::new(CabTimings::prototype());
        let threads: Vec<_> = (0..4).map(|i| sched.spawn(format!("t{i}"))).collect();
        let mut now = Time::ZERO;
        for f in flows {
            let tid = threads[f.dst as usize % threads.len()];
            now = sched.run(now, tid, Dur::from_nanos(f.bytes as u64)).1;
        }
        black_box(sched.switches());
        flows.len() as u64
    })
}

/// `Header::encode_into` then `Header::decode`, one packet per flow.
fn header(flows: &[Flow]) -> f64 {
    let payloads: Vec<Vec<u8>> = flows.iter().map(|f| vec![0u8; packet_bytes(f)]).collect();
    let mut buf = Vec::with_capacity(1024);
    ns_per_op(|| {
        for (f, p) in flows.iter().zip(&payloads) {
            let h = Header {
                payload_len: p.len() as u16,
                ..Header::new(PacketKind::Datagram, CabId::new(f.src), CabId::new(f.dst))
            };
            buf.clear();
            h.encode_into(p, &mut buf);
            black_box(Header::decode(&buf).expect("encoded header decodes"));
        }
        flows.len() as u64
    })
}

/// The packets an action list sends.
fn sends(out: &mut Vec<Action>) -> Vec<(Header, Arc<[u8]>)> {
    out.drain(..)
        .filter_map(|a| match a {
            Action::Send { header, payload, .. } => Some((header, payload)),
            _ => None,
        })
        .collect()
}

/// `Datagram::send` at the source, `on_packet` at the destination.
fn datagram(flows: &[Flow]) -> f64 {
    let payloads: Vec<Vec<u8>> = flows.iter().map(|f| vec![0u8; packet_bytes(f)]).collect();
    let mut out = Vec::new();
    ns_per_op(|| {
        let mut tx = Datagram::new(CabId::new(0));
        let mut rx = Datagram::new(CabId::new(1));
        for p in &payloads {
            tx.send(Time::ZERO, CabId::new(1), 1, 2, p, &mut out);
            for (h, payload) in sends(&mut out) {
                rx.on_packet(Time::ZERO, &h, &payload, &mut out);
            }
            out.clear();
        }
        payloads.len() as u64
    })
}

/// A byte-stream pair exchanging one message per flow: `send_message`
/// at the source, then `on_packet` on both sides until the data is
/// delivered and acknowledged.
fn bytestream(flows: &[Flow]) -> f64 {
    let cfg = SystemConfig::default().stream;
    let payloads: Vec<Vec<u8>> =
        flows.iter().take(FLOWS / 4).map(|f| vec![0u8; f.bytes as usize]).collect();
    ns_per_op(|| {
        let mut tx = ByteStream::new(CabId::new(0), CabId::new(1), cfg);
        let mut rx = ByteStream::new(CabId::new(1), CabId::new(0), cfg);
        let mut out = Vec::new();
        for p in &payloads {
            tx.send_message(Time::ZERO, 1, 2, p, &mut out);
            let mut wire = sends(&mut out);
            while !wire.is_empty() {
                let mut next = Vec::new();
                for (h, payload) in wire {
                    let to_rx = h.dst_cab == CabId::new(1);
                    let end = if to_rx { &mut rx } else { &mut tx };
                    end.on_packet(Time::ZERO, &h, &payload, &mut out);
                    next.extend(sends(&mut out));
                }
                wire = next;
            }
        }
        payloads.len() as u64
    })
}

/// One request-response call per flow: `call`, server `on_packet`,
/// `respond`, client `on_packet`.
fn reqresp(flows: &[Flow]) -> f64 {
    let cfg = SystemConfig::default().rpc;
    let payloads: Vec<Vec<u8>> = flows.iter().map(|f| vec![0u8; packet_bytes(f)]).collect();
    let mut out = Vec::new();
    ns_per_op(|| {
        let mut client = ReqRespClient::new(CabId::new(0), cfg);
        let mut server = ReqRespServer::new(CabId::new(1), cfg);
        for p in &payloads {
            let tx = client.call(Time::ZERO, CabId::new(1), 1, 2, p, &mut out);
            for (h, payload) in sends(&mut out) {
                server.on_packet(Time::ZERO, &h, &payload, &mut out);
            }
            out.clear();
            server.respond(Time::ZERO, CabId::new(0), tx, p, &mut out);
            for (h, payload) in sends(&mut out) {
                client.on_packet(Time::ZERO, &h, &payload, &mut out);
            }
            out.clear();
        }
        payloads.len() as u64
    })
}

/// A telemetry capture of the workload's first [`CAPTURE_EVENTS`]
/// engine events, observability on: the input of the analysis replays.
/// Returns the events (time-sorted) and the ring drops.
fn capture(w: &Workload, spec: &WorkloadSpec) -> (Vec<TelemetryEvent>, u64) {
    let mut world = World::new((w.topo)(), SystemConfig::default());
    world.set_telemetry_capacity(1 << 20);
    world.enable_observability();
    world.set_workload(spec).expect("preset accepted");
    let deadline = w.deadline(spec);
    let mut t = Time::ZERO;
    while world.events_processed() < CAPTURE_EVENTS && t < deadline {
        t += Dur::from_micros(10);
        if world.run_to_quiescence(t).1 == nectar_core::world::QuiescenceOutcome::Quiescent {
            break;
        }
    }
    (world.telemetry_events(), world.telemetry_pressure().1)
}

/// Analysis replays over a capture: the streaming doctor's `ingest`
/// in 4096-event batches and its final report, and post-hoc
/// `diagnose`. Returns `(ingest ns/event, finish ns, diagnose
/// ns/event, events folded, peak fold bytes)`.
fn analysis(events: &[TelemetryEvent]) -> (f64, f64, f64, u64, usize) {
    let n = events.len().max(1) as u64;
    let mut finish = Vec::new();
    let mut folded = 0;
    let mut peak = 0;
    let ingest = self_timed(|| {
        let mut doctor = StreamingDoctor::new(StreamConfig::default());
        let batches: Vec<Vec<TelemetryEvent>> = events.chunks(4096).map(<[_]>::to_vec).collect();
        let t = Instant::now();
        for mut b in batches {
            doctor.ingest(&mut b);
        }
        let ns = t.elapsed().as_nanos();
        let summary = doctor.summary();
        (folded, peak) = (summary.events_folded, summary.peak_mem_bytes);
        let f = Instant::now();
        black_box(doctor.into_report(None));
        finish.push(f.elapsed().as_nanos() as f64);
        (n, ns)
    });
    let diag = ns_per_op(|| {
        black_box(diagnose(events, None));
        n
    });
    (ingest, median(&finish), diag, folded, peak)
}

/// Every layer replay, as per-layer metrics. `pending_peak` sizes the
/// engine replay's queue.
pub fn all(w: &Workload, spec: &WorkloadSpec, pending_peak: usize) -> Vec<Metric> {
    let topo = (w.topo)();
    let (flows, flow_ns, compile_ns) = draw_flows(&topo, spec);
    let (events, capture_dropped) = capture(w, spec);
    let (ingest, finish, diag, folded, peak) = analysis(&events);
    vec![
        Metric::new("engine.ns_per_event", engine(pending_peak, spec.seed), "ns"),
        Metric::new("hub.ns_per_packet", hub(&topo, &flows), "ns"),
        Metric::new("cab.checksum_ns_per_kb", checksum(&flows), "ns"),
        Metric::new("cab.dma_ns_per_transfer", dma(&flows), "ns"),
        Metric::new("kernel.mailbox_ns_per_msg", mailbox(&flows), "ns"),
        Metric::new("kernel.sched_ns_per_run", scheduler(&flows), "ns"),
        Metric::new("proto.header_ns_per_packet", header(&flows), "ns"),
        Metric::new("proto.datagram_ns_per_msg", datagram(&flows), "ns"),
        Metric::new("proto.bytestream_ns_per_msg", bytestream(&flows), "ns"),
        Metric::new("proto.reqresp_ns_per_call", reqresp(&flows), "ns"),
        Metric::new("workload.compile_ns", compile_ns, "ns"),
        Metric::new("workload.ns_per_flow", flow_ns, "ns"),
        Metric::new("analysis.ingest_ns_per_event", ingest, "ns"),
        Metric::new("analysis.diagnose_ns_per_event", diag, "ns"),
        Metric::new("analysis.finish_ns", finish, "ns"),
        Metric::new("telemetry.events_folded", folded as f64, "count"),
        Metric::new("telemetry.dropped_events", capture_dropped as f64, "count"),
        Metric::new("analysis.peak_mem_bytes", peak as f64, "B"),
    ]
}
