//! `nectar-doctor`: analyses over the flight recorder.
//!
//! The paper's instrumentation board (§4.1) existed because end-to-end
//! totals don't tell you *where* latency comes from — HUB queueing, CAB
//! protocol processing, or fiber serialization. This module family
//! closes the record → analyze → gate loop over the telemetry ring and
//! [`MetricsRegistry`](crate::metrics::MetricsRegistry):
//!
//! * [`flights`] — one packet's recorded history, a
//!   [`Flight`](flights::Flight).
//! * [`critical_path`] — attributes every delivered flight's latency to
//!   pipeline segments whose durations sum *exactly* to the end-to-end
//!   time, then aggregates p50/p90/p99 per segment.
//! * [`pathology`] — per-flight folds and thresholds for retransmit
//!   storms, head-of-line blocking, mailbox saturation, and silent
//!   drops, each emitting a typed [`Finding`](pathology::Finding) with
//!   evidence.
//! * [`streaming`] — the doctor: an incremental bounded-memory fold in
//!   which flights retire into online accumulators as the run
//!   progresses, with periodic checkpoints a live consumer can poll.
//! * [`compare`] — the perf-regression gate: diffs two bench reports on
//!   deterministic simulated metrics with noise-aware tolerances.
//!
//! [`diagnose`] is the post-hoc front door: events + metrics in, a
//! rendered [`DoctorReport`] out. It folds the whole capture through
//! the streaming doctor as one batch, so the report does not depend on
//! the order of its input and equals a streamed run's report. When the
//! telemetry ring overflowed during capture
//! (`telemetry.dropped_events > 0`), every finding is downgraded to
//! non-confident and the report says so — analyses over truncated data
//! must not assert.

pub mod compare;
pub mod critical_path;
pub mod flights;
pub mod pathology;
pub mod streaming;

use crate::metrics::MetricsRegistry;
use crate::telemetry::TelemetryEvent;
use critical_path::CriticalPath;
use pathology::{DoctorConfig, Finding};
use std::fmt::Write as _;
use streaming::{StreamConfig, StreamingDoctor};

/// Everything the doctor concluded about one capture.
#[derive(Clone, Debug)]
pub struct DoctorReport {
    /// Distinct flights reconstructed from the capture.
    pub flights: u64,
    /// Telemetry events lost to ring overflow during the capture
    /// (from the `telemetry.dropped_events` counter).
    pub dropped_events: u64,
    /// `false` when `dropped_events > 0`: the capture is truncated and
    /// every finding below is marked suspect.
    pub confident: bool,
    /// Per-segment latency attribution.
    pub critical_path: CriticalPath,
    /// Detected pathologies, most severe first.
    pub findings: Vec<Finding>,
}

impl DoctorReport {
    /// Renders the report: the "where did the time go" table followed
    /// by the findings (or a clean bill of health).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.confident {
            let _ = writeln!(
                out,
                "  !! telemetry ring dropped {} events — capture truncated, \
                 findings are suspect",
                self.dropped_events
            );
        }
        out.push_str(&self.critical_path.render());
        if self.findings.is_empty() {
            let _ = writeln!(out, "  findings: none");
        } else {
            let _ = writeln!(out, "  findings:");
            for f in &self.findings {
                let _ = writeln!(out, "    {f}");
            }
        }
        out
    }
}

/// Runs the full analysis with default thresholds. `metrics` feeds the
/// mailbox detector and the dropped-event check; pass `None` when only
/// the event stream is available.
pub fn diagnose(events: &[TelemetryEvent], metrics: Option<&MetricsRegistry>) -> DoctorReport {
    diagnose_with(events, metrics, &DoctorConfig::default())
}

/// [`diagnose`] with explicit detector thresholds: one
/// [`StreamingDoctor`] batch holding the whole capture.
pub fn diagnose_with(
    events: &[TelemetryEvent],
    metrics: Option<&MetricsRegistry>,
    cfg: &DoctorConfig,
) -> DoctorReport {
    let mut doctor =
        StreamingDoctor::new(StreamConfig { doctor: cfg.clone(), ..Default::default() });
    doctor.ingest(&mut events.to_vec());
    doctor.into_report(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EventKind, FlightId};
    use crate::time::Time;

    fn capture() -> Vec<TelemetryEvent> {
        let f = FlightId(1);
        vec![
            TelemetryEvent {
                at: Time::from_nanos(1_000),
                flight: f,
                kind: EventKind::TransportSend {
                    cab: 0,
                    peer: 1,
                    seq: 0,
                    bytes: 64,
                    retransmit: false,
                },
            },
            TelemetryEvent {
                at: Time::from_nanos(9_000),
                flight: f,
                kind: EventKind::AppRecv { cab: 1, mailbox: 0, bytes: 64 },
            },
        ]
    }

    #[test]
    fn clean_capture_is_confident() {
        let rep = diagnose(&capture(), None);
        assert!(rep.confident);
        assert_eq!(rep.flights, 1);
        assert_eq!(rep.critical_path.attributed, 1);
        assert!(rep.render().contains("findings: none"));
    }

    #[test]
    fn ring_overflow_downgrades_findings() {
        let mut m = MetricsRegistry::new();
        m.counter_add("telemetry.dropped_events", 17);
        m.gauge_max("mailbox.capacity_bytes", 1024.0);
        m.counter_add("cab0.mailbox_rejects", 2);
        m.gauge_max("cab0.mailbox.peak_bytes", 1024.0);
        let rep = diagnose(&capture(), Some(&m));
        assert!(!rep.confident);
        assert_eq!(rep.dropped_events, 17);
        assert!(rep.findings.iter().all(|f| !f.confident));
        assert!(rep.render().contains("capture truncated"));
    }
}
