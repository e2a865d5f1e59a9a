//! Streaming doctor: bounded-memory incremental flight analysis.
//!
//! [`StreamingDoctor`] is the one implementation of the doctor. A
//! post-hoc capture holds the whole run in the telemetry ring, so at
//! scale it either drops events (findings downgrade to non-confident)
//! or the ring grows without bound; the streaming fold analyses the
//! run incrementally instead: a windowed flight table retires completed
//! flights into compact online accumulators, so memory tracks the
//! number of flights *in flight*, not the number ever seen. Post-hoc
//! [`diagnose`](super::diagnose) is this fold over one batch holding
//! the whole capture.
//!
//! # Fold lifecycle
//!
//! Events arrive in **batches**: each batch is sorted into the
//! canonical order (`TelemetryEvent::canonical_key`) and must be
//! time-disjoint from — and later than — every previous batch. The
//! world guarantees this by only draining events whose timestamp is
//! below the engine's next-event time: such events are *final* (every
//! record site stamps at-or-after the processing instant, so nothing
//! earlier can still be produced). Concatenated, the batches are
//! exactly the canonically sorted capture, which is why the report does
//! not depend on where the batch boundaries fall: a run streamed in
//! many batches and its capture diagnosed as one batch give the same
//! report.
//!
//! A flight retires once it is **terminal** (delivered via `app_recv`,
//! or an ack flight consumed by `transport_ack`) *and* has been idle
//! for the [`horizon`](StreamConfig::horizon); non-terminal flights —
//! lost, corrupted, or merely parked in a congested crossbar queue
//! longer than the horizon — are held until the final report (or a
//! memory-budget eviction), so congestion can never race a live packet
//! into retirement. On retirement the breakdown feeds the
//! [`CriticalPath`] histograms and the pathology folds
//! ([`pathology::fold_storm`], [`pathology::fold_head_of_line`]), its
//! events are freed, and only O(1) residue per stream slot remains
//! (first-send time for retransmit attribution, data-flight count and
//! lost-candidate list for the silent-drop detector) until the slot is
//! acknowledged. Every retirement contribution commutes — histogram
//! increments, sums, bounded smallest-K evidence and top-K worst sets —
//! so retirement *order* can never change the report; only an event
//! arriving for an already-retired flight can, and that is detected
//! exactly (packet ids are minted monotonically per CAB) and counted in
//! [`StreamSummary::late_events`].
//!
//! Periodic [`DoctorCheckpoint`]s expose the fold's running state —
//! counts, memory estimate, provisional findings — for a live consumer
//! to poll without stopping the run.

use super::critical_path::{breakdown, CriticalPath};
use super::flights::{Flight, StreamKey};
use super::pathology::{self, DoctorConfig, Finding, PortAcc, StreamAcc};
use super::DoctorReport;
use crate::metrics::MetricsRegistry;
use crate::telemetry::{EventKind, TelemetryEvent};
use crate::time::{Dur, Time};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::mem::size_of;

/// Streaming-doctor tuning.
#[derive(Clone, Debug)]
pub struct StreamConfig {
    /// Detector thresholds.
    pub doctor: DoctorConfig,
    /// A **completed** flight (one that saw a terminal event —
    /// delivery or ack consumption) retires after this much simulated
    /// time with no new events. Must exceed the longest gap after a
    /// terminal event (for unicast, nothing follows one; multicast
    /// copies still in flight keep updating the quiet clock), or
    /// retirement races the stragglers and the report counts
    /// `late_events` (the report then depends on batch boundaries).
    /// Flights without a terminal event — still in flight, silently
    /// dropped, corrupted — are held until the final report or a
    /// memory-budget eviction, never horizon-retired: congestion can
    /// park a packet in a crossbar queue for longer than any
    /// reasonable quiet period. The default (1 ms) matches the
    /// silent-drop grace window.
    pub horizon: Dur,
    /// Emit a [`DoctorCheckpoint`] every this many folded events.
    pub checkpoint_every: u64,
    /// Hard cap on the fold's estimated footprint: when exceeded, the
    /// oldest open flights are force-retired (counted in
    /// [`StreamSummary::forced_retirements`]) until back under.
    pub memory_budget: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            doctor: DoctorConfig::default(),
            horizon: Dur::from_millis(1),
            checkpoint_every: 1 << 16,
            memory_budget: None,
        }
    }
}

/// One flight still accumulating events.
#[derive(Clone, Debug)]
struct OpenFlight {
    flight: Flight,
    last_at: Time,
    slot: Option<StreamKey>,
    /// `true` once a terminal event was folded: `AppRecv` (the packet
    /// reached an application) or `TransportAck` (the ack was consumed
    /// at the data sender). Only terminal flights retire on the
    /// horizon — a packet can sit in a congested crossbar queue far
    /// longer than any reasonable quiet period, but nothing follows a
    /// delivery. Non-terminal flights (in flight, dropped, corrupted)
    /// are held until the final report or a memory-budget eviction.
    terminal: bool,
}

/// What survives a stream slot after its flights retire.
#[derive(Clone, Debug)]
struct SlotResidue {
    /// Earliest `transport_send` of the slot — final once written,
    /// because batches arrive in time order.
    first_send: Time,
    /// Data flights of this slot retired so far (a count > 1 means a
    /// retransmission superseded the original: not a silent drop).
    data_count: u64,
    /// Flights currently open on this slot; the residue may only be
    /// pruned once this reaches zero *and* the slot is acked.
    open_flights: u32,
}

/// A poll-able snapshot of the fold's running state.
#[derive(Clone, Debug)]
pub struct DoctorCheckpoint {
    /// Watermark (latest folded event time) at emission.
    pub at: Time,
    /// Host time at emission ([`crate::profile::host_now_ns`]): pairs
    /// the simulated watermark with a wall-clock position, so a live
    /// consumer (or the host-time profiler) can measure fold progress
    /// per host second. Never part of bit-compared state.
    pub host_ns: u64,
    /// Events folded so far.
    pub events_folded: u64,
    /// Distinct flights seen so far.
    pub flights_seen: u64,
    /// Flights retired into the online accumulators so far.
    pub flights_retired: u64,
    /// Flights still open (bounding current memory).
    pub open_flights: usize,
    /// Events that arrived for already-retired flights.
    pub late_events: u64,
    /// Estimated fold footprint in bytes.
    pub mem_bytes: usize,
    /// Findings as of this point (no metrics-based detectors; final
    /// silent-drop judgment needs the capture end, so these use the
    /// current watermark as the horizon).
    pub provisional: Vec<Finding>,
}

/// Fold statistics for the run summary, kept apart from bit-compared
/// simulated metrics (they depend on drain cadence, not the workload).
#[derive(Clone, Debug, Default)]
pub struct StreamSummary {
    /// Events folded in total.
    pub events_folded: u64,
    /// Distinct flights reconstructed.
    pub flights_seen: u64,
    /// Flights retired into the online accumulators.
    pub flights_retired: u64,
    /// Flights still open when the summary was taken.
    pub open_flights: usize,
    /// Events that arrived for already-retired flights (nonzero means
    /// the horizon was too short and the report depends on batch
    /// boundaries).
    pub late_events: u64,
    /// Retirements forced by the memory budget.
    pub forced_retirements: u64,
    /// Checkpoints emitted.
    pub checkpoints: u64,
    /// Peak estimated fold footprint in bytes.
    pub peak_mem_bytes: usize,
    /// Highest per-component telemetry ring occupancy observed.
    pub ring_hwm: u64,
    /// Telemetry events lost to ring overflow.
    pub ring_dropped: u64,
}

/// The incremental doctor. Feed time-disjoint event batches with
/// [`ingest`](StreamingDoctor::ingest); finish with
/// [`report`](StreamingDoctor::report) /
/// [`into_report`](StreamingDoctor::into_report).
#[derive(Clone, Debug)]
pub struct StreamingDoctor {
    cfg: StreamConfig,
    open: HashMap<u64, OpenFlight>,
    /// Lazy retirement queue: one `(event time, flight)` entry per
    /// folded flight event, popped once the watermark passes `time +
    /// horizon`. Stale entries (the flight saw newer events, or already
    /// retired) are skipped on pop.
    retire_queue: VecDeque<(Time, u64)>,
    residue: HashMap<StreamKey, SlotResidue>,
    /// Highest cumulative ack per `(sender, peer)` direction.
    acked: HashMap<(u16, u16), u32>,
    streams: BTreeMap<(u16, u16), StreamAcc>,
    ports: BTreeMap<(u8, u8), PortAcc>,
    /// Silent-drop candidates per slot: `(send time, flight id)` of
    /// retired data flights that were never delivered or acked.
    candidates: BTreeMap<StreamKey, Vec<(Time, u64)>>,
    cp: CriticalPath,
    /// Highest retired flight id per CAB (ids are minted `(cab << 40) |
    /// counter`, monotone per CAB) — the exact late-event detector.
    max_retired: HashMap<u64, u64>,
    watermark: Time,
    events_folded: u64,
    flights_seen: u64,
    flights_retired: u64,
    late_events: u64,
    forced_retirements: u64,
    open_event_bytes: usize,
    peak_mem: usize,
    checkpoints_emitted: u64,
    next_checkpoint_at: u64,
    last_checkpoint: Option<DoctorCheckpoint>,
    ring_hwm: u64,
    ring_dropped: u64,
}

impl StreamingDoctor {
    /// A fresh fold with the given tuning.
    pub fn new(cfg: StreamConfig) -> StreamingDoctor {
        let next_checkpoint_at = cfg.checkpoint_every;
        StreamingDoctor {
            cfg,
            open: HashMap::new(),
            retire_queue: VecDeque::new(),
            residue: HashMap::new(),
            acked: HashMap::new(),
            streams: BTreeMap::new(),
            ports: BTreeMap::new(),
            candidates: BTreeMap::new(),
            cp: CriticalPath::default(),
            max_retired: HashMap::new(),
            watermark: Time::ZERO,
            events_folded: 0,
            flights_seen: 0,
            flights_retired: 0,
            late_events: 0,
            forced_retirements: 0,
            open_event_bytes: 0,
            peak_mem: 0,
            checkpoints_emitted: 0,
            next_checkpoint_at,
            last_checkpoint: None,
            ring_hwm: 0,
            ring_dropped: 0,
        }
    }

    /// Folds one batch. The batch is canonically sorted in place and
    /// cleared; every event must be at-or-after the current watermark
    /// (batches are time-disjoint and arrive in time order).
    pub fn ingest(&mut self, batch: &mut Vec<TelemetryEvent>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable_by_key(|e| e.canonical_key());
        debug_assert!(
            batch[0].at >= self.watermark,
            "streaming batch reaches back before the watermark: {} < {}",
            batch[0].at,
            self.watermark
        );
        for ev in batch.iter() {
            self.fold_event(ev);
        }
        batch.clear();
        self.advance_retirement();
        self.enforce_budget();
        self.peak_mem = self.peak_mem.max(self.mem_estimate());
        self.maybe_checkpoint();
    }

    fn fold_event(&mut self, ev: &TelemetryEvent) {
        self.watermark = self.watermark.max(ev.at);
        self.events_folded += 1;
        if let EventKind::TransportAck { cab, peer, ack } = ev.kind {
            // `cab` received the ack, so it is the data sender.
            let high = self.acked.entry((cab, peer)).or_insert(0);
            *high = (*high).max(ack);
        }
        if !ev.flight.is_some() {
            return;
        }
        let id = ev.flight.0;
        if let EventKind::TransportSend { cab, peer, seq, .. } = ev.kind {
            let r = self.residue.entry((cab, peer, seq)).or_insert(SlotResidue {
                first_send: ev.at,
                data_count: 0,
                open_flights: 0,
            });
            r.first_send = r.first_send.min(ev.at);
        }
        let mut assigned_slot = None;
        let of = self.open.entry(id).or_insert_with(|| {
            let cab = id >> 40;
            if self.max_retired.get(&cab).is_some_and(|&m| id <= m) {
                self.late_events += 1;
            } else {
                self.flights_seen += 1;
            }
            OpenFlight {
                flight: Flight { id, events: Vec::new() },
                last_at: ev.at,
                slot: None,
                terminal: false,
            }
        });
        if of.slot.is_none() {
            if let EventKind::TransportSend { cab, peer, seq, .. } = ev.kind {
                of.slot = Some((cab, peer, seq));
                assigned_slot = Some((cab, peer, seq));
            }
        }
        if matches!(ev.kind, EventKind::AppRecv { .. } | EventKind::TransportAck { .. }) {
            of.terminal = true;
        }
        of.flight.events.push(*ev);
        of.last_at = ev.at;
        if let Some(k) = assigned_slot {
            // The entry exists: every send event writes the residue above.
            self.residue.get_mut(&k).expect("slot residue").open_flights += 1;
        }
        self.open_event_bytes += size_of::<TelemetryEvent>();
        self.retire_queue.push_back((ev.at, id));
    }

    fn advance_retirement(&mut self) {
        while let Some(&(t, id)) = self.retire_queue.front() {
            if t + self.cfg.horizon > self.watermark {
                break;
            }
            self.retire_queue.pop_front();
            if let Some(of) = self.open.get(&id) {
                if of.terminal && of.last_at + self.cfg.horizon <= self.watermark {
                    self.retire(id);
                }
            }
        }
    }

    /// Folds one completed flight into the online accumulators and
    /// frees its events. Contributions commute, so retirement order is
    /// irrelevant to the final report.
    fn retire(&mut self, id: u64) {
        let Some(of) = self.open.remove(&id) else { return };
        self.open_event_bytes = self
            .open_event_bytes
            .saturating_sub(of.flight.events.len() * size_of::<TelemetryEvent>());
        self.flights_retired += 1;
        let cab = id >> 40;
        let m = self.max_retired.entry(cab).or_insert(0);
        *m = (*m).max(id);
        let f = &of.flight;
        pathology::fold_storm(f, &mut self.streams, &self.cfg.doctor);
        pathology::fold_head_of_line(f, &mut self.ports, &self.cfg.doctor);
        let first = f.stream_key().and_then(|k| self.residue.get(&k).map(|r| r.first_send));
        match breakdown(f, first) {
            Some(b) => self.cp.add(&b),
            None => self.cp.skipped += 1,
        }
        let Some(k) = f.stream_key() else { return };
        let acked = self.acked.get(&(k.0, k.1)).is_some_and(|&h| h > k.2);
        let Some(r) = self.residue.get_mut(&k) else { return };
        if f.is_data() {
            r.data_count += 1;
        }
        r.open_flights = r.open_flights.saturating_sub(1);
        let open_left = r.open_flights;
        if f.is_data() && !f.delivered() && !f.malformed() && !acked {
            if let Some(at) = f.send().map(|e| e.at) {
                self.candidates.entry(k).or_default().push((at, id));
            }
        }
        if acked && open_left == 0 {
            // An acked slot can gain no further silent-drop candidates
            // (acks are cumulative and monotone), and no open flight
            // needs its first-send time: drop the residue.
            self.residue.remove(&k);
            self.candidates.remove(&k);
        }
    }

    fn enforce_budget(&mut self) {
        let Some(budget) = self.cfg.memory_budget else { return };
        while self.mem_estimate() > budget {
            match self.retire_queue.pop_front() {
                Some((_, id)) => {
                    if self.open.contains_key(&id) {
                        self.retire(id);
                        self.forced_retirements += 1;
                    }
                }
                None => break,
            }
        }
    }

    fn maybe_checkpoint(&mut self) {
        if self.events_folded < self.next_checkpoint_at {
            return;
        }
        self.next_checkpoint_at = self.events_folded + self.cfg.checkpoint_every;
        let cp = DoctorCheckpoint {
            at: self.watermark,
            host_ns: crate::profile::host_now_ns(),
            events_folded: self.events_folded,
            flights_seen: self.flights_seen,
            flights_retired: self.flights_retired,
            open_flights: self.open.len(),
            late_events: self.late_events,
            mem_bytes: self.mem_estimate(),
            provisional: self.provisional_findings(),
        };
        self.checkpoints_emitted += 1;
        self.last_checkpoint = Some(cp);
    }

    /// Findings from the accumulators as they stand (storms,
    /// head-of-line, silent drops against the current watermark). The
    /// metrics-based detectors need the final registry and only appear
    /// in the finished report.
    pub fn provisional_findings(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        for ((cab, peer), acc) in &self.streams {
            out.extend(pathology::storm_finding(*cab, *peer, acc, &self.cfg.doctor));
        }
        for ((hub, input), port) in &self.ports {
            out.extend(pathology::hol_finding(*hub, *input, port, &self.cfg.doctor));
        }
        out.extend(pathology::silent_drop_finding(self.lost_candidates(), &self.cfg.doctor));
        pathology::sort_findings(&mut out);
        out
    }

    /// Surviving silent-drop candidates: unacked slots with exactly one
    /// data flight, sent more than a grace window before the watermark.
    fn lost_candidates(&self) -> Vec<(Time, u64)> {
        let mut lost = Vec::new();
        for (k, list) in &self.candidates {
            if self.acked.get(&(k.0, k.1)).is_some_and(|&h| h > k.2) {
                continue;
            }
            if self.residue.get(k).map_or(0, |r| r.data_count) > 1 {
                continue;
            }
            for &(at, id) in list {
                if at + self.cfg.doctor.grace > self.watermark {
                    continue;
                }
                lost.push((at, id));
            }
        }
        lost
    }

    /// Estimated footprint of the fold state in bytes. An estimate —
    /// map overheads are approximated — but it moves with the real
    /// footprint, which is what the budget needs.
    pub fn mem_estimate(&self) -> usize {
        self.open_event_bytes
            + self.open.len() * (size_of::<OpenFlight>() + size_of::<u64>() + 16)
            + self.retire_queue.len() * size_of::<(Time, u64)>()
            + self.residue.len() * (size_of::<StreamKey>() + size_of::<SlotResidue>() + 16)
            + self.candidates.len() * 64
            + self.streams.len() * 96
            + self.ports.len() * 160
    }

    /// Latest emitted checkpoint, if any.
    pub fn last_checkpoint(&self) -> Option<&DoctorCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// Latest folded event time.
    pub fn watermark(&self) -> Time {
        self.watermark
    }

    /// Events folded so far.
    pub fn events_folded(&self) -> u64 {
        self.events_folded
    }

    /// Records ring pressure observed by the world that fed this fold
    /// (kept here because under streaming the ring high-water mark
    /// depends on drain cadence and must stay out of the bit-compared
    /// metrics).
    pub fn note_ring(&mut self, hwm: u64, dropped: u64) {
        self.ring_hwm = self.ring_hwm.max(hwm);
        self.ring_dropped = self.ring_dropped.max(dropped);
    }

    /// Fold statistics for the run summary.
    pub fn summary(&self) -> StreamSummary {
        StreamSummary {
            events_folded: self.events_folded,
            flights_seen: self.flights_seen,
            flights_retired: self.flights_retired,
            open_flights: self.open.len(),
            late_events: self.late_events,
            forced_retirements: self.forced_retirements,
            checkpoints: self.checkpoints_emitted,
            peak_mem_bytes: self.peak_mem.max(self.mem_estimate()),
            ring_hwm: self.ring_hwm,
            ring_dropped: self.ring_dropped,
        }
    }

    /// Finishes the fold: retires every open flight and builds the
    /// final report — the same report [`diagnose`](super::diagnose)
    /// gives over the whole capture in one batch (provided
    /// [`late_events`](StreamSummary::late_events) is zero).
    pub fn into_report(mut self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        let mut ids: Vec<u64> = self.open.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.retire(id);
        }
        let mut findings = Vec::new();
        for ((cab, peer), acc) in &self.streams {
            findings.extend(pathology::storm_finding(*cab, *peer, acc, &self.cfg.doctor));
        }
        for ((hub, input), port) in &self.ports {
            findings.extend(pathology::hol_finding(*hub, *input, port, &self.cfg.doctor));
        }
        if let Some(m) = metrics {
            pathology::mailbox_saturation(m, &self.cfg.doctor, &mut findings);
            pathology::reassembly_mismatches(m, &mut findings);
        }
        findings.extend(pathology::silent_drop_finding(self.lost_candidates(), &self.cfg.doctor));
        pathology::sort_findings(&mut findings);
        let dropped_events = metrics.map_or(0, |m| m.counter("telemetry.dropped_events"));
        let confident = dropped_events == 0;
        if !confident {
            for f in &mut findings {
                f.confident = false;
            }
        }
        DoctorReport {
            flights: self.flights_seen,
            dropped_events,
            confident,
            critical_path: self.cp,
            findings,
        }
    }

    /// [`into_report`](StreamingDoctor::into_report) without consuming
    /// the fold (clones the state — fine for checkpoint-sized polls).
    pub fn report(&self, metrics: Option<&MetricsRegistry>) -> DoctorReport {
        self.clone().into_report(metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::diagnose;
    use crate::telemetry::FlightId;

    fn ev(ns: u64, flight: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent { at: Time::from_nanos(ns), flight: FlightId(flight), kind }
    }

    fn send(ns: u64, flight: u64, seq: u32, retransmit: bool) -> TelemetryEvent {
        ev(ns, flight, EventKind::TransportSend { cab: 0, peer: 1, seq, bytes: 64, retransmit })
    }

    fn recv(ns: u64, flight: u64) -> TelemetryEvent {
        ev(ns, flight, EventKind::AppRecv { cab: 1, mailbox: 0, bytes: 64 })
    }

    /// A capture with a storm, a silent drop, and plain deliveries.
    fn busy_capture() -> Vec<TelemetryEvent> {
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(send(100 + i, i, i as u32, false));
            events.push(recv(10_000 + i, i));
        }
        for i in 0..3u64 {
            events.push(send(20_000 + i, 100 + i, i as u32, true));
            events.push(recv(30_000 + i, 100 + i));
        }
        // Ids are minted monotonically per CAB, like the real world's
        // packet ids — the late-event detector relies on it.
        events.push(send(40_000, 150, 40, false)); // never delivered
        events.push(send(90_000_000, 160, 41, false));
        events.push(recv(90_000_500, 160));
        events
    }

    fn stream_in_batches(events: &[TelemetryEvent], batch_len: usize) -> StreamingDoctor {
        let mut sorted = events.to_vec();
        sorted.sort_unstable_by_key(|e| e.canonical_key());
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        for chunk in sorted.chunks(batch_len.max(1)) {
            // Batches must be time-disjoint: extend each chunk to a
            // timestamp boundary.
            doc.ingest(&mut chunk.to_vec());
        }
        doc
    }

    #[test]
    fn batch_size_does_not_change_the_report() {
        let events = busy_capture();
        // `diagnose` folds the whole capture as one batch.
        let reference = diagnose(&events, None);
        for batch_len in [1, 3, 7] {
            let doc = stream_in_batches(&events, batch_len);
            assert_eq!(doc.summary().late_events, 0);
            let rep = doc.into_report(None);
            assert_eq!(rep.flights, reference.flights, "batch_len {batch_len}");
            assert_eq!(rep.render(), reference.render(), "batch_len {batch_len}");
            assert_eq!(rep.critical_path.attributed, reference.critical_path.attributed);
            assert_eq!(rep.critical_path.skipped, reference.critical_path.skipped);
            assert_eq!(
                rep.critical_path.total_hist().mean(),
                reference.critical_path.total_hist().mean()
            );
        }
    }

    #[test]
    fn flights_retire_after_horizon_and_free_memory() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        let mut batch = vec![send(100, 1, 0, false), recv(9_000, 1)];
        doc.ingest(&mut batch);
        assert_eq!(doc.summary().open_flights, 1);
        // An unrelated event far past the horizon retires flight 1.
        let mut batch = vec![send(10_000_000, 2, 1, false)];
        doc.ingest(&mut batch);
        let s = doc.summary();
        assert_eq!(s.flights_retired, 1);
        assert_eq!(s.open_flights, 1);
        assert_eq!(s.late_events, 0);
    }

    #[test]
    fn memory_budget_forces_retirement() {
        let cfg = StreamConfig { memory_budget: Some(600), ..StreamConfig::default() };
        let mut doc = StreamingDoctor::new(cfg);
        let mut batch: Vec<_> = (0..64).map(|i| send(100 + i, i, i as u32, false)).collect();
        doc.ingest(&mut batch);
        let s = doc.summary();
        assert!(s.forced_retirements > 0, "budget never enforced: {s:?}");
        assert_eq!(s.open_flights, 0, "every open flight force-retired");
    }

    #[test]
    fn late_event_is_detected() {
        let mut doc = StreamingDoctor::new(StreamConfig::default());
        // Flight 1 completes (the recv makes it terminal), so pushing
        // the watermark a horizon past its last event retires it.
        doc.ingest(&mut vec![send(100, 1, 0, false), recv(9_000, 1)]);
        doc.ingest(&mut vec![send(50_000_000, 2, 1, false)]);
        assert_eq!(doc.summary().flights_retired, 1);
        // An event for retired flight 1 arrives afterwards.
        doc.ingest(&mut vec![recv(50_000_100, 1)]);
        assert_eq!(doc.summary().late_events, 1);
    }

    #[test]
    fn checkpoints_expose_provisional_findings() {
        let cfg = StreamConfig { checkpoint_every: 4, ..StreamConfig::default() };
        let mut doc = StreamingDoctor::new(cfg);
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(send(100 + i, i, i as u32, false));
            events.push(recv(10_000 + i, i));
        }
        for i in 0..3u64 {
            events.push(send(20_000 + i, 100 + i, i as u32, true));
            events.push(recv(30_000 + i, 100 + i));
        }
        // Retire everything with a far-future event, then checkpoint.
        events.push(send(90_000_000, 200, 50, false));
        events.sort_unstable_by_key(|e| e.canonical_key());
        doc.ingest(&mut events);
        let cp = doc.last_checkpoint().expect("checkpoint emitted");
        assert!(cp.events_folded >= 4);
        assert!(doc.summary().checkpoints >= 1);
        assert!(
            cp.provisional.iter().any(|f| f.detector == "retransmit_storm"),
            "storm visible in checkpoint: {:?}",
            cp.provisional
        );
    }
}
