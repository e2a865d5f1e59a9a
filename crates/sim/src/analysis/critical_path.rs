//! Critical-path attribution: where did each flight's time go?
//!
//! For every delivered unicast flight, the breakdown walks the flight's
//! time-sorted events and classifies each inter-event gap by the kind of
//! the **later** event; when several events share the later instant,
//! the one first along the datapath (fiber, HUB forward, next hop's
//! enqueue, DMA, delivery) names the segment. Because the gaps
//! telescope from `transport_send` to `app_recv`, the per-segment
//! durations sum *exactly* to the flight's end-to-end latency — an
//! invariant the property tests pin. Time a message lost to go-back-N
//! resends (the gap between the stream slot's first transmission and
//! the delivered copy's send) is charged to [`Segment::Retransmit`].

use super::flights::Flight;
use crate::metrics::Histogram;
use crate::telemetry::EventKind;
use crate::time::{Dur, Time};
use std::fmt::Write as _;

/// One slice of a flight's end-to-end latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Segment {
    /// Earlier transmissions of the same stream slot that were lost:
    /// first send of the `(cab, peer, seq)` slot → this flight's send.
    Retransmit,
    /// Datalink transmit queueing: `transport_send` → `fiber_tx`
    /// (flow-control stalls and burst-FIFO wait at the sending CAB).
    TransportQueue,
    /// Fiber serialization and propagation: `fiber_tx` → first HUB
    /// arrival, each `crossbar_forward` → next hop's arrival, and the
    /// final hop into the receiving CAB's `dma` start.
    Fiber,
    /// Crossbar queue wait, summed over every HUB on the path:
    /// `crossbar_enqueue` → `crossbar_forward`.
    HubQueue,
    /// Receive-side DMA drain: `dma` start → `dma` complete.
    Dma,
    /// Kernel delivery: `dma` complete → `app_recv` (interrupt upcall,
    /// checksum, thread wait, mailbox append).
    Delivery,
    /// Gaps whose later event is none of the known span boundaries.
    /// A catch-all so the sum invariant survives new event kinds.
    Other,
}

impl Segment {
    /// Every segment, in pipeline order.
    pub const ALL: [Segment; 7] = [
        Segment::Retransmit,
        Segment::TransportQueue,
        Segment::Fiber,
        Segment::HubQueue,
        Segment::Dma,
        Segment::Delivery,
        Segment::Other,
    ];

    /// Stable human-readable name (also the metrics key suffix).
    pub const fn label(self) -> &'static str {
        match self {
            Segment::Retransmit => "retransmit",
            Segment::TransportQueue => "transport_queue",
            Segment::Fiber => "fiber",
            Segment::HubQueue => "hub_queue",
            Segment::Dma => "dma",
            Segment::Delivery => "delivery",
            Segment::Other => "other",
        }
    }

    const fn index(self) -> usize {
        match self {
            Segment::Retransmit => 0,
            Segment::TransportQueue => 1,
            Segment::Fiber => 2,
            Segment::HubQueue => 3,
            Segment::Dma => 4,
            Segment::Delivery => 5,
            Segment::Other => 6,
        }
    }

    /// Which segment a gap ending in `kind` belongs to, or `None` when
    /// the event is not on the packet's datapath (it contributes to
    /// [`Segment::Other`]).
    fn for_gap_ending_in(kind: &EventKind) -> Segment {
        match kind {
            EventKind::FiberTx { .. } => Segment::TransportQueue,
            EventKind::CrossbarEnqueue { .. } => Segment::Fiber,
            EventKind::CrossbarForward { .. } => Segment::HubQueue,
            EventKind::DmaStart { .. } => Segment::Fiber,
            EventKind::DmaComplete { .. } => Segment::Dma,
            EventKind::AppRecv { .. } => Segment::Delivery,
            _ => Segment::Other,
        }
    }
}

/// One delivered flight's latency, attributed segment by segment.
#[derive(Clone, Copy, Debug)]
pub struct Breakdown {
    /// The flight this breakdown describes.
    pub flight: u64,
    /// End-to-end latency: first transmission of the stream slot to
    /// delivery. Always equals the sum of all segments.
    pub total: Dur,
    segs: [Dur; Segment::ALL.len()],
}

impl Breakdown {
    /// Time attributed to one segment.
    pub fn segment(&self, s: Segment) -> Dur {
        self.segs[s.index()]
    }

    /// Sum over all segments (equals [`Breakdown::total`] by
    /// construction; exposed so tests can assert the invariant).
    pub fn segment_sum(&self) -> Dur {
        self.segs.iter().copied().sum()
    }
}

/// Attributes one flight's latency, or `None` when the flight is not a
/// delivered unicast data flight with a recorded send (multicast,
/// control, undelivered, and malformed flights are skipped).
///
/// `first_send` is the stream slot's first transmission time, across
/// the original send and every retransmission; pass `None` for
/// transports without retransmission (the flight's own send is used).
/// The flight's events must be in time order; same-instant events may
/// come in any order.
pub fn breakdown(flight: &Flight, first_send: Option<Time>) -> Option<Breakdown> {
    if flight.malformed() || flight.recv_count() != 1 || !flight.is_data() {
        return None;
    }
    let start =
        flight.events.iter().position(|e| matches!(e.kind, EventKind::TransportSend { .. }))?;
    let send_at = flight.events[start].at;
    let origin = first_send.unwrap_or(send_at).min(send_at);
    let mut segs = [Dur::ZERO; Segment::ALL.len()];
    segs[Segment::Retransmit.index()] = send_at - origin;
    let mut prev = send_at;
    // Stamps coincide on every hop (a forward and the next hop's
    // enqueue share an instant), and neither record nor canonical order
    // puts such ties causally. Within one instant, the gap belongs to
    // the event that comes first along the datapath.
    for group in flight.events[start + 1..].chunk_by(|a, b| a.at == b.at) {
        let at = group[0].at;
        let lead =
            group.iter().min_by_key(|e| datapath_rank(&e.kind)).expect("chunks are non-empty");
        segs[Segment::for_gap_ending_in(&lead.kind).index()] += at.saturating_since(prev);
        prev = prev.max(at);
        if group.iter().any(|e| matches!(e.kind, EventKind::AppRecv { .. })) {
            break;
        }
    }
    Some(Breakdown { flight: flight.id, total: prev - origin, segs })
}

/// Causal position of a same-instant event on a packet's datapath:
/// the sender's fiber, then each HUB (a forward before the next hop's
/// enqueue), then the receiver's DMA, with delivery last.
fn datapath_rank(kind: &EventKind) -> u8 {
    match kind {
        EventKind::FiberTx { .. } => 0,
        EventKind::CrossbarForward { .. } => 1,
        EventKind::CrossbarEnqueue { .. } => 2,
        EventKind::DmaStart { .. } => 3,
        EventKind::DmaComplete { .. } => 4,
        EventKind::AppRecv { .. } => 6,
        _ => 5,
    }
}

/// Per-segment latency distributions over every attributable flight in
/// a capture — the "where did the time go" table.
#[derive(Clone, Debug, Default)]
pub struct CriticalPath {
    hists: Vec<Histogram>,
    total: Histogram,
    /// Flights that produced a breakdown.
    pub attributed: u64,
    /// Flights skipped (control, multicast, undelivered, malformed).
    pub skipped: u64,
}

impl CriticalPath {
    /// Folds one flight's breakdown into the per-segment histograms.
    pub fn add(&mut self, b: &Breakdown) {
        if self.hists.is_empty() {
            self.hists = vec![Histogram::new(); Segment::ALL.len()];
        }
        for s in Segment::ALL {
            self.hists[s.index()].observe(b.segment(s).nanos());
        }
        self.total.observe(b.total.nanos());
        self.attributed += 1;
    }

    /// The distribution of one segment's per-flight durations, or
    /// `None` before any flight was added.
    pub fn segment_hist(&self, s: Segment) -> Option<&Histogram> {
        self.hists.get(s.index())
    }

    /// The distribution of end-to-end latencies.
    pub fn total_hist(&self) -> &Histogram {
        &self.total
    }

    /// Renders the per-segment table: one row per segment with mean,
    /// p50/p90/p99 and share of total mean time.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.attributed == 0 {
            let _ = writeln!(
                out,
                "  no attributable flights ({} skipped: control/multicast/undelivered)",
                self.skipped
            );
            return out;
        }
        let total_mean = self.total.mean().max(1.0);
        let _ = writeln!(
            out,
            "  {:<16} {:>10} {:>10} {:>10} {:>10} {:>7}",
            "segment", "mean us", "p50 us", "p90 us", "p99 us", "share"
        );
        for s in Segment::ALL {
            let h = &self.hists[s.index()];
            if h.max() == 0 {
                continue; // segment never charged in this capture
            }
            let _ = writeln!(
                out,
                "  {:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
                s.label(),
                h.mean() / 1e3,
                h.quantile(0.50) / 1e3,
                h.quantile(0.90) / 1e3,
                h.quantile(0.99) / 1e3,
                100.0 * h.mean() / total_mean,
            );
        }
        let _ = writeln!(
            out,
            "  {:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>6.1}%",
            "end-to-end",
            self.total.mean() / 1e3,
            self.total.quantile(0.50) / 1e3,
            self.total.quantile(0.90) / 1e3,
            self.total.quantile(0.99) / 1e3,
            100.0,
        );
        let _ = writeln!(
            out,
            "  flights: {} attributed, {} skipped (control/multicast/undelivered)",
            self.attributed, self.skipped
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{FlightId, TelemetryEvent};

    fn ev(ns: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(7), kind }
    }

    fn datapath_flight() -> Flight {
        Flight {
            id: 7,
            events: vec![
                ev(
                    1_000,
                    EventKind::TransportSend {
                        cab: 0,
                        peer: 1,
                        seq: 0,
                        bytes: 64,
                        retransmit: false,
                    },
                ),
                ev(1_400, EventKind::FiberTx { cab: 0, bytes: 98 }),
                ev(2_000, EventKind::CrossbarEnqueue { hub: 0, input: 2, bytes: 98 }),
                ev(2_300, EventKind::CrossbarForward { hub: 0, input: 2, output: 5, bytes: 98 }),
                ev(2_900, EventKind::DmaStart { cab: 1, channel: 0, bytes: 96 }),
                ev(4_000, EventKind::DmaComplete { cab: 1, channel: 0, bytes: 96 }),
                ev(9_000, EventKind::AppRecv { cab: 1, mailbox: 2, bytes: 64 }),
            ],
        }
    }

    #[test]
    fn segments_cover_the_pipeline() {
        let b = breakdown(&datapath_flight(), None).unwrap();
        assert_eq!(b.segment(Segment::TransportQueue), Dur::from_nanos(400));
        assert_eq!(b.segment(Segment::Fiber), Dur::from_nanos(600 + 600));
        assert_eq!(b.segment(Segment::HubQueue), Dur::from_nanos(300));
        assert_eq!(b.segment(Segment::Dma), Dur::from_nanos(1_100));
        assert_eq!(b.segment(Segment::Delivery), Dur::from_nanos(5_000));
        assert_eq!(b.segment(Segment::Retransmit), Dur::ZERO);
        assert_eq!(b.total, Dur::from_nanos(8_000));
        assert_eq!(b.segment_sum(), b.total);
    }

    /// A three-hop flight of the sharded fat-star (e26), in record
    /// order. Adjacent stamps coincide: `fiber_tx` with the first
    /// enqueue, and each forward with the next hop's enqueue or the
    /// receive DMA start.
    fn three_hop_flight() -> Flight {
        Flight {
            id: 7,
            events: vec![
                ev(
                    10_000,
                    EventKind::TransportSend {
                        cab: 0,
                        peer: 32,
                        seq: 0,
                        bytes: 512,
                        retransmit: false,
                    },
                ),
                ev(61_620, EventKind::CrossbarEnqueue { hub: 1, input: 0, bytes: 546 }),
                ev(61_620, EventKind::FiberTx { cab: 0, bytes: 546 }),
                ev(63_350, EventKind::CrossbarEnqueue { hub: 0, input: 0, bytes: 546 }),
                ev(63_350, EventKind::CrossbarForward { hub: 1, input: 0, output: 15, bytes: 546 }),
                ev(63_700, EventKind::CrossbarEnqueue { hub: 5, input: 15, bytes: 546 }),
                ev(63_700, EventKind::CrossbarForward { hub: 0, input: 0, output: 4, bytes: 546 }),
                ev(64_050, EventKind::DmaStart { cab: 32, channel: 0, bytes: 544 }),
                ev(64_050, EventKind::CrossbarForward { hub: 5, input: 15, output: 0, bytes: 546 }),
                ev(107_730, EventKind::DmaComplete { cab: 32, channel: 0, bytes: 544 }),
                ev(108_730, EventKind::AppRecv { cab: 32, mailbox: 41, bytes: 512 }),
            ],
        }
    }

    #[test]
    fn same_instant_stamps_follow_the_datapath() {
        let record = three_hop_flight();
        let b = breakdown(&record, None).unwrap();
        assert_eq!(b.segment(Segment::TransportQueue), Dur::from_nanos(51_620));
        assert_eq!(b.segment(Segment::Fiber), Dur::ZERO);
        assert_eq!(b.segment(Segment::HubQueue), Dur::from_nanos(1_730 + 350 + 350));
        assert_eq!(b.segment(Segment::Dma), Dur::from_nanos(43_680));
        assert_eq!(b.segment(Segment::Delivery), Dur::from_nanos(1_000));
        assert_eq!(b.total, Dur::from_nanos(98_730));
        assert_eq!(b.segment_sum(), b.total);

        let mut canonical = record.clone();
        canonical.events.sort_by_key(|e| e.canonical_key());
        assert_ne!(canonical.events, record.events, "the two orders differ on ties");
        let c = breakdown(&canonical, None).unwrap();
        for s in Segment::ALL {
            assert_eq!(c.segment(s), b.segment(s), "{}", s.label());
        }
        assert_eq!(c.total, b.total);
    }

    #[test]
    fn diagnose_ignores_capture_order() {
        let events = three_hop_flight().events;
        let reference = crate::analysis::diagnose(&events, None).render();
        let reversed: Vec<_> = events.iter().rev().copied().collect();
        let (even, odd): (Vec<_>, Vec<_>) =
            events.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        let interleaved: Vec<_> = even.into_iter().chain(odd).map(|(_, e)| *e).collect();
        for shuffled in [reversed, interleaved] {
            assert_eq!(crate::analysis::diagnose(&shuffled, None).render(), reference);
        }
    }

    #[test]
    fn retransmit_time_charged_to_delivered_copy() {
        let b = breakdown(&datapath_flight(), Some(Time::from_nanos(200))).unwrap();
        assert_eq!(b.segment(Segment::Retransmit), Dur::from_nanos(800));
        assert_eq!(b.total, Dur::from_nanos(8_800));
        assert_eq!(b.segment_sum(), b.total);
    }

    #[test]
    fn non_data_and_undelivered_are_skipped() {
        let mut control = datapath_flight();
        if let EventKind::TransportSend { bytes, .. } = &mut control.events[0].kind {
            *bytes = 0;
        }
        assert!(breakdown(&control, None).is_none());
        let mut undelivered = datapath_flight();
        undelivered.events.pop();
        assert!(breakdown(&undelivered, None).is_none());
    }

    #[test]
    fn render_lists_active_segments() {
        let mut cp = CriticalPath::default();
        cp.add(&breakdown(&datapath_flight(), None).unwrap());
        let s = cp.render();
        assert!(s.contains("delivery"));
        assert!(s.contains("end-to-end"));
        assert!(!s.contains("retransmit")); // never charged here
    }
}
