//! `nectar-doctor` integration tests: the storm detector fires on a
//! deterministic forced-loss scenario with exactly the retransmitted
//! flight ids, and critical-path segment sums reconcile with end-to-end
//! flight latency — exactly, not approximately — on real simulations.

use nectar_core::system::NectarSystem;
use nectar_core::topology::Topology;
use nectar_core::world::{SystemConfig, World};
use nectar_sim::analysis::critical_path::breakdown;
use nectar_sim::analysis::flights::{Flight, StreamKey};
use nectar_sim::analysis::{diagnose, pathology::DoctorConfig};
use nectar_sim::telemetry::EventKind;
use nectar_sim::time::Time;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Forced loss on the bytestream transport produces a go-back-N
/// retransmit storm; the detector fires, names the stream, and lists
/// exactly the retransmitted flights the recorder saw (golden).
#[test]
fn storm_detector_fires_with_the_right_flight_ids() {
    let mut sys = NectarSystem::single_hub(2, SystemConfig::default());
    sys.world_mut().enable_observability();
    // Deterministic heavy loss: every drop decision comes from the
    // seeded RNG, so the set of retransmitted flights is reproducible.
    sys.world_mut().inject_faults(0.35, 0.0, 1989);
    for _ in 0..10 {
        sys.world_mut().send_stream_now(0, 1, 1, 2, &[0x5Au8; 600]);
    }
    sys.world_mut().run_until(Time::from_millis(500));
    assert!(!sys.world().deliveries.is_empty(), "transport must recover from loss");

    let events = sys.world_mut().telemetry_events();
    let metrics = sys.world_mut().metrics();

    // Golden evidence set, computed independently of the detector: the
    // data-carrying sends flagged as retransmissions by the recorder.
    let mut expected: Vec<u64> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::TransportSend { retransmit: true, bytes, .. } if bytes > 0)
        })
        .map(|e| e.flight.0)
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert!(expected.len() >= 3, "scenario must actually storm (saw {expected:?})");

    // Uncap the evidence list so the golden comparison is exact.
    let cfg = DoctorConfig { max_evidence: usize::MAX, ..DoctorConfig::default() };
    let report = nectar_sim::analysis::diagnose_with(&events, Some(&metrics), &cfg);
    assert!(report.confident, "no ring overflow expected in this scenario");
    let storm = report
        .findings
        .iter()
        .find(|f| f.detector == "retransmit_storm")
        .expect("storm detector fires under 35% loss");
    assert_eq!(storm.subject, "stream 0->1");
    let mut got = storm.flights.clone();
    got.sort_unstable();
    assert_eq!(got, expected, "finding lists exactly the retransmitted flights");
    // The retransmission metrics agree with the event stream.
    assert_eq!(metrics.counter("cab0.transport.retransmissions"), expected.len() as u64);
    assert!(metrics.counter("cab0.transport.timeouts") > 0);
}

/// A clean run has no findings at all.
#[test]
fn clean_run_has_no_findings() {
    let mut sys = NectarSystem::single_hub(3, SystemConfig::default());
    sys.world_mut().enable_observability();
    sys.world_mut().send_stream_now(0, 2, 1, 2, &[1u8; 300]);
    sys.world_mut().send_stream_now(1, 2, 1, 2, &[2u8; 300]);
    sys.world_mut().run_until(Time::from_millis(100));
    let events = sys.world_mut().telemetry_events();
    let metrics = sys.world_mut().metrics();
    let report = diagnose(&events, Some(&metrics));
    assert!(report.confident);
    assert_eq!(metrics.counter("telemetry.dropped_events"), 0);
    assert!(report.findings.is_empty(), "unexpected findings: {:?}", report.findings);
    assert!(report.critical_path.attributed > 0);
}

/// Checks the reconciliation invariant over one finished world: every
/// delivered unicast data flight gets a breakdown whose segment sum
/// equals the flight's end-to-end latency *exactly*, measured
/// independently from the raw events.
fn assert_segments_reconcile(world: &mut World) -> usize {
    // Group the time-sorted capture by flight, and find each stream
    // slot's first transmission, straight from the raw events.
    let mut flights: BTreeMap<u64, Flight> = BTreeMap::new();
    let mut first_send: HashMap<StreamKey, Time> = HashMap::new();
    for ev in world.telemetry_events().into_iter().filter(|e| e.flight.is_some()) {
        if let EventKind::TransportSend { cab, peer, seq, .. } = ev.kind {
            let first = first_send.entry((cab, peer, seq)).or_insert(ev.at);
            *first = (*first).min(ev.at);
        }
        let id = ev.flight.0;
        flights.entry(id).or_insert_with(|| Flight { id, events: Vec::new() }).events.push(ev);
    }
    let mut checked = 0;
    for flight in flights.values() {
        let first = flight.stream_key().and_then(|k| first_send.get(&k).copied());
        let Some(b) = breakdown(flight, first) else { continue };
        // Independent end-to-end: slot's first transmission to delivery.
        let recv_at = flight.recv().expect("attributed flights were delivered").at;
        let send_at = flight.send().expect("attributed flights have a send").at;
        let origin = first.unwrap_or(send_at).min(send_at);
        assert_eq!(
            b.segment_sum(),
            b.total,
            "segments must sum exactly to the breakdown total (flight {})",
            flight.id
        );
        assert_eq!(
            b.total,
            recv_at - origin,
            "breakdown total must equal send-to-delivery latency (flight {})",
            flight.id
        );
        checked += 1;
    }
    checked
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random unicast traffic on a single HUB: segment sums equal
    /// end-to-end flight latency exactly, for every delivered flight.
    #[test]
    fn segment_sums_equal_latency_single_hub(
        sends in prop::collection::vec((0usize..4, 0usize..4, 1usize..1200), 1..8)
    ) {
        let mut world = World::new(Topology::single_hub(4, 16), SystemConfig::default());
        world.enable_observability();
        let mut expected = 0;
        for &(src, dst, len) in &sends {
            if src == dst { continue; }
            world.send_stream_now(src, dst, 1, 2, &vec![0x42u8; len]);
            expected += 1;
        }
        world.run_until(Time::from_millis(200));
        prop_assert_eq!(world.deliveries.len(), expected);
        let checked = assert_segments_reconcile(&mut world);
        // Every delivered message's final fragment is attributable.
        prop_assert!(expected == 0 || checked >= expected);
    }

    /// The same invariant holds across multi-HUB meshes, where flights
    /// accumulate per-HUB queueing segments.
    #[test]
    fn segment_sums_equal_latency_on_meshes(
        rows in 1usize..3,
        cols in 1usize..3,
        len in 1usize..900,
    ) {
        let mut sys = NectarSystem::mesh(rows, cols, 1, SystemConfig::default());
        sys.world_mut().enable_observability();
        let cabs = rows * cols;
        if cabs > 1 {
            sys.world_mut().send_stream_now(0, cabs - 1, 1, 2, &vec![9u8; len]);
        }
        sys.world_mut().run_until(Time::from_millis(200));
        prop_assert!(!sys.world().deliveries.is_empty() || cabs == 1);
        let checked = assert_segments_reconcile(sys.world_mut());
        prop_assert!(cabs == 1 || checked > 0);
    }
}
