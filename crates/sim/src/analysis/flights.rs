//! Flight reconstruction: grouping the flat telemetry stream back into
//! per-packet causal histories.
//!
//! The flight recorder emits one flat, time-ordered stream of
//! [`TelemetryEvent`]s. The streaming doctor groups that stream into
//! one [`Flight`] per packet id, holding the packet's events in time
//! order, and keys retransmission bookkeeping by the flight's
//! [`StreamKey`].

use crate::telemetry::{EventKind, TelemetryEvent};

/// Identifies one slot of one transport instance: the sending CAB, the
/// peer it talks to, and the transport sequence number.
pub type StreamKey = (u16, u16, u32);

/// One packet's recorded life, oldest event first.
#[derive(Clone, Debug)]
pub struct Flight {
    /// The packet id minted by the sending CAB.
    pub id: u64,
    /// This flight's events, sorted by timestamp.
    pub events: Vec<TelemetryEvent>,
}

impl Flight {
    /// The `transport_send` event that started the flight, if recorded.
    pub fn send(&self) -> Option<&TelemetryEvent> {
        self.events.iter().find(|e| matches!(e.kind, EventKind::TransportSend { .. }))
    }

    /// The first `app_recv` delivery of this flight, if any.
    pub fn recv(&self) -> Option<&TelemetryEvent> {
        self.events.iter().find(|e| matches!(e.kind, EventKind::AppRecv { .. }))
    }

    /// Number of `app_recv` deliveries (more than one means multicast).
    pub fn recv_count(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::AppRecv { .. })).count()
    }

    /// `true` when the flight reached at least one application.
    pub fn delivered(&self) -> bool {
        self.recv().is_some()
    }

    /// `true` when the flight carried payload (control packets such as
    /// bare acknowledgments carry zero bytes and never deliver).
    pub fn is_data(&self) -> bool {
        matches!(self.send().map(|e| e.kind), Some(EventKind::TransportSend { bytes, .. }) if bytes > 0)
    }

    /// `true` when the flight was a retransmission of an earlier packet.
    pub fn is_retransmit(&self) -> bool {
        matches!(
            self.send().map(|e| e.kind),
            Some(EventKind::TransportSend { retransmit: true, .. })
        )
    }

    /// The `(cab, peer, seq)` transport slot this flight occupied.
    pub fn stream_key(&self) -> Option<StreamKey> {
        match self.send().map(|e| e.kind) {
            Some(EventKind::TransportSend { cab, peer, seq, .. }) => Some((cab, peer, seq)),
            _ => None,
        }
    }

    /// A flight should have exactly one `transport_send`. More than one
    /// means event streams from unrelated worlds were merged (packet
    /// ids collide across worlds); such flights are skipped by the
    /// breakdown rather than producing nonsense spans.
    pub fn malformed(&self) -> bool {
        self.events.iter().filter(|e| matches!(e.kind, EventKind::TransportSend { .. })).count() > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::FlightId;
    use crate::time::Time;

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn send(ns: u64, flight: u64, seq: u32, bytes: u32, retransmit: bool) -> TelemetryEvent {
        ev(ns, flight, EventKind::TransportSend { cab: 0, peer: 1, seq, bytes, retransmit })
    }

    #[test]
    fn delivery_and_payload_are_read_from_events() {
        let recv = ev(900, 5, EventKind::AppRecv { cab: 1, mailbox: 2, bytes: 64 });
        let f = Flight { id: 5, events: vec![send(100, 5, 0, 64, false), recv] };
        assert!(f.delivered());
        assert!(f.is_data());
        let lost = Flight { id: 6, events: vec![send(150, 6, 1, 64, false)] };
        assert!(!lost.delivered());
    }

    #[test]
    fn retransmit_names_its_stream_slot() {
        let f = Flight { id: 9, events: vec![send(900, 9, 0, 64, true)] };
        assert!(f.is_retransmit());
        assert_eq!(f.stream_key(), Some((0, 1, 0)));
    }

    #[test]
    fn merged_worlds_are_flagged_malformed() {
        let f =
            Flight { id: 5, events: vec![send(100, 5, 0, 64, false), send(200, 5, 4, 64, false)] };
        assert!(f.malformed());
    }

    #[test]
    fn control_flights_are_not_data() {
        let f = Flight { id: 5, events: vec![send(100, 5, 0, 0, false)] };
        assert!(!f.is_data());
    }
}
