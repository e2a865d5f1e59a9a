//! Output checks: a run counts only if the simulated system settled,
//! its metrics match the stored fingerprint (at the default seed), the
//! sharded run equals the sequential one, and the doctor is satisfied.

use crate::run::Rep;
use crate::workloads::Workload;
use nectar_core::world::QuiescenceOutcome;
use nectar_sim::analysis::pathology::Severity;
use nectar_sim::analysis::DoctorReport;
use nectar_sim::json::{self, Json};

/// `metrics().to_json()` of each workload at its default seed. The
/// sharded workload must reproduce the sequential one bit for bit, so
/// `spike-2shard` shares `spike`'s file.
fn stored(w: &Workload) -> &'static str {
    match w.preset {
        "spike" => include_str!("../expected/spike.json"),
        "lattice" => include_str!("../expected/lattice.json"),
        "rpc-fanout" => include_str!("../expected/rpc-doctor.json"),
        other => unreachable!("no stored fingerprint for preset {other}"),
    }
}

/// FNV-1a over the bytes: the fingerprint printed with each result.
pub fn fingerprint(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Flattens a metrics JSON object into `(dotted name, value text)`
/// pairs, in document order.
fn flatten(prefix: &str, j: &Json, out: &mut Vec<(String, String)>) {
    match j.as_object() {
        Some(fields) => {
            for (k, v) in fields {
                let name = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&name, v, out);
            }
        }
        None => {
            let text = match j {
                Json::Number(n) => n.to_string(),
                other => format!("{other:?}"),
            };
            out.push((prefix.to_string(), text));
        }
    }
}

/// Names the first metric whose value differs between two metrics
/// JSON documents (or that only one of them has).
pub fn first_difference(got: &str, want: &str) -> String {
    let parse = |s: &str| {
        let mut v = Vec::new();
        if let Ok(j) = json::parse(s) {
            flatten("", &j, &mut v);
        }
        v
    };
    let (g, w) = (parse(got), parse(want));
    for i in 0..g.len().max(w.len()) {
        match (g.get(i), w.get(i)) {
            (Some((gk, gv)), Some((wk, wv))) if gk == wk && gv != wv => {
                return format!("{gk}: got {gv}, expected {wv}");
            }
            (Some((gk, _)), Some((wk, _))) if gk != wk => {
                return format!("metric set differs at {gk} (expected {wk})");
            }
            (Some((gk, _)), None) => return format!("unexpected metric {gk}"),
            (None, Some((wk, _))) => return format!("missing metric {wk}"),
            _ => {}
        }
    }
    "metrics JSON differs in formatting only".to_string()
}

/// The structural checks every repetition must pass at any seed.
pub fn structural(w: &Workload, rep: &Rep) -> Result<(), String> {
    if rep.outcome != QuiescenceOutcome::Quiescent {
        return Err(format!("{}: deadline reached before quiescence", w.name));
    }
    if !rep.transport_quiescent {
        return Err(format!("{}: transports not quiescent (streams or RPCs in flight)", w.name));
    }
    if let Some(report) = &rep.doctor {
        doctor(w, report)?;
    } else if w.doctor {
        return Err(format!("{}: streaming doctor produced no report", w.name));
    }
    Ok(())
}

/// The doctor must have seen the whole run and found nothing critical.
pub fn doctor(w: &Workload, report: &DoctorReport) -> Result<(), String> {
    if !report.confident {
        return Err(format!(
            "{}: doctor not confident ({} telemetry events dropped)",
            w.name, report.dropped_events
        ));
    }
    match report.findings.iter().find(|f| f.severity == Severity::Critical) {
        Some(f) => Err(format!("{}: critical finding {} at {}", w.name, f.detector, f.subject)),
        None => Ok(()),
    }
}

/// `got` must equal `want` (both `metrics().to_json()` output).
pub fn same_metrics(w: &Workload, what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    Err(format!("{}: {what}: first differing counter {}", w.name, first_difference(got, want)))
}

/// At the default seed the metrics must equal the stored fingerprint.
pub fn against_stored(w: &Workload, got: &str) -> Result<(), String> {
    same_metrics(w, "stored fingerprint", got, stored(w).trim_end())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;
    use nectar_sim::analysis::critical_path::CriticalPath;
    use nectar_sim::analysis::pathology::Finding;
    use nectar_sim::metrics::MetricsRegistry;
    use nectar_sim::time::Time;

    fn rep(outcome: QuiescenceOutcome, transport_quiescent: bool) -> Rep {
        Rep {
            world_new_s: 0.0,
            set_workload_s: 0.0,
            wall_s: 0.0,
            cpu_s: 0.0,
            events: 0,
            outcome,
            transport_quiescent,
            makespan: Time::ZERO,
            metrics: MetricsRegistry::new(),
            doctor: None,
        }
    }

    fn report(confident: bool, findings: Vec<Finding>) -> DoctorReport {
        DoctorReport {
            flights: 1,
            dropped_events: u64::from(!confident),
            confident,
            critical_path: CriticalPath::default(),
            findings,
        }
    }

    fn finding(severity: Severity) -> Finding {
        Finding {
            detector: "head_of_line",
            severity,
            confident: true,
            summary: String::new(),
            subject: "hub0 input 1".into(),
            window: None,
            flights: Vec::new(),
        }
    }

    #[test]
    fn quiescence_checks_pass_and_fail() {
        let spike = find("spike").unwrap();
        assert!(structural(spike, &rep(QuiescenceOutcome::Quiescent, true)).is_ok());
        let late = structural(spike, &rep(QuiescenceOutcome::DeadlineReached, true));
        assert!(late.unwrap_err().contains("spike: deadline"));
        let busy = structural(spike, &rep(QuiescenceOutcome::Quiescent, false));
        assert!(busy.unwrap_err().contains("transports not quiescent"));
    }

    #[test]
    fn stored_fingerprint_accepts_itself_and_names_a_perturbed_counter() {
        for name in ["spike", "lattice", "rpc-doctor", "spike-2shard"] {
            let w = find(name).unwrap();
            let want = stored(w).trim_end();
            assert!(against_stored(w, want).is_ok(), "{name}");
            let perturbed = want.replacen("\"cab0.packets_tx\": ", "\"cab0.packets_tx\": 1", 1);
            let err = against_stored(w, &perturbed).unwrap_err();
            assert!(err.starts_with(&format!("{name}: ")), "{err}");
            assert!(err.contains("counters.cab0.packets_tx"), "{err}");
        }
    }

    #[test]
    fn sharded_must_equal_sequential() {
        let w = find("spike-2shard").unwrap();
        let mut a = MetricsRegistry::new();
        a.counter_add("hub3.drops", 0);
        a.counter_add("hub3.packets_forwarded", 10);
        let mut b = a.clone();
        assert!(same_metrics(w, "sharded vs sequential", &a.to_json(), &b.to_json()).is_ok());
        b.counter_add("hub3.packets_forwarded", 1);
        let err = same_metrics(w, "sharded vs sequential", &a.to_json(), &b.to_json());
        assert!(err.unwrap_err().contains("hub3.packets_forwarded: got"));
    }

    #[test]
    fn doctor_must_be_confident_with_no_critical_findings() {
        let w = find("rpc-doctor").unwrap();
        assert!(doctor(w, &report(true, vec![finding(Severity::Warn)])).is_ok());
        assert!(doctor(w, &report(false, vec![])).unwrap_err().contains("not confident"));
        let crit = doctor(w, &report(true, vec![finding(Severity::Critical)]));
        assert!(crit.unwrap_err().contains("critical finding head_of_line"));
        let mut missing = rep(QuiescenceOutcome::Quiescent, true);
        missing.doctor = None;
        assert!(structural(w, &missing).unwrap_err().contains("no report"));
    }
}
