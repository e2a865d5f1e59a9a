//! The untraced run: end-to-end metrics from repeated, timed
//! repetitions of one workload, plus the output checks.

use crate::check;
use crate::clock::{median, peak_rss_mib};
use crate::run::{self, Rep};
use crate::workloads::{Sim, Workload};
use crate::{Metric, Outcome};
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::workload::WorkloadSpec;
use std::time::{Duration, Instant};

/// Fewest timed repetitions a run reports a median over, however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

/// Fewest set-ups `setup_s` is the median of; set-up is short, so the
/// run adds untimed-run set-ups until it has this many.
const MIN_SETUPS: usize = 25;

/// Sum of every counter whose name ends with `suffix`, over all
/// components (`hub3.drops`, `cab17.mailbox_rejects`, ...).
pub fn sum_suffix(m: &MetricsRegistry, suffix: &str) -> u64 {
    m.counters().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| v).sum()
}

/// Operations that failed: messages destroyed by a HUB drop or queue
/// overflow, or refused by a full mailbox. Byte-stream timeouts are
/// not counted: the stream retransmits and still delivers (transport
/// quiescence is checked), so they are retries, reported per layer.
pub fn failed_ops(m: &MetricsRegistry) -> u64 {
    [".drops", ".overflows", ".mailbox_rejects"].iter().map(|s| sum_suffix(m, s)).sum()
}

/// Flight-latency quantiles `(samples, p50 µs, p99 µs)` from
/// `latency.flight_ns`, which the registry holds only when
/// observability was on.
fn flight_quantiles(m: &MetricsRegistry) -> Option<(u64, f64, f64)> {
    let h = m.histogram("latency.flight_ns")?;
    Some((h.count(), h.quantile(0.50) / 1e3, h.quantile(0.99) / 1e3))
}

/// One extra, untimed run with observability on, for the flight
/// latency the timed (unobserved) runs do not record.
fn observed_flights(w: &Workload, spec: &WorkloadSpec) -> Option<(u64, f64, f64)> {
    let mut sim = Sim::new(w);
    match &mut sim {
        Sim::Seq(world) => world.enable_observability(),
        Sim::Sharded(world) => world.enable_observability(),
    }
    sim.set_workload(spec).ok()?;
    sim.run_to_quiescence(w.deadline(spec));
    flight_quantiles(&sim.metrics())
}

/// The sequential reference the sharded workload must reproduce.
fn sequential_reference(w: &Workload, spec: &WorkloadSpec) -> String {
    let mut sim = Sim::build(w, 1);
    sim.set_workload(spec).expect("preset accepted by the sharded run");
    sim.run_to_quiescence(w.deadline(spec));
    sim.metrics().to_json()
}

/// Runs `w` for at least `seconds` of timed repetitions and checks
/// every output.
pub fn measure(w: &Workload, spec: &WorkloadSpec, default_seed: bool, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed() < budget {
        let rep = run::once(w, spec);
        if let Err(e) = check::structural(w, &rep) {
            errors.push(e);
        }
        reps.push(rep);
    }
    let peak_rss = peak_rss_mib();

    let json = reps[0].metrics.to_json();
    for (i, rep) in reps.iter().enumerate().skip(1) {
        if let Err(e) =
            check::same_metrics(w, &format!("repetition {i}"), &rep.metrics.to_json(), &json)
        {
            errors.push(e);
        }
    }
    if default_seed {
        if let Err(e) = check::against_stored(w, &json) {
            errors.push(e);
        }
    }
    if w.shards > 1 {
        let reference = sequential_reference(w, spec);
        if let Err(e) = check::same_metrics(w, "sharded vs sequential", &json, &reference) {
            errors.push(e);
        }
    }

    let mut setups: Vec<f64> = reps.iter().map(Rep::setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let (_, world_new_s, set_workload_s) = run::setup(w, spec);
        setups.push(world_new_s + set_workload_s);
    }
    let flights = flight_quantiles(&reps[0].metrics).or_else(|| observed_flights(w, spec));
    let (samples, p50, p99) = flights.unwrap_or_else(|| {
        errors.push(format!("{}: no flight-latency samples", w.name));
        (0, 0.0, 0.0)
    });

    let first = &reps[0];
    let makespan_us = first.makespan.nanos() as f64 / 1e3;
    let offered_bits = sum_suffix(&first.metrics, ".workload.bytes") as f64 * 8.0;
    let per_cpu: Vec<f64> = reps.iter().map(|r| r.events as f64 / r.cpu_s).collect();
    let per_wall: Vec<f64> = reps.iter().map(|r| r.events as f64 / r.wall_s).collect();
    let rates: Vec<String> = per_cpu.iter().map(|r| format!("{r:.0}")).collect();
    let notes = vec![
        format!("fingerprint={:016x}", check::fingerprint(&json)),
        format!("events_per_cpu_s per repetition: {}", rates.join(" ")),
        format!(
            "reps={} events={} flows={} flight_samples={samples}",
            reps.len(),
            first.events,
            sum_suffix(&first.metrics, ".workload.flows")
        ),
    ];
    Outcome {
        errors,
        attempted: reps.iter().map(|r| sum_suffix(&r.metrics, ".workload.flows")).sum(),
        failed: reps.iter().map(|r| failed_ops(&r.metrics)).sum(),
        notes,
        metrics: vec![
            Metric::new("events_per_cpu_s", median(&per_cpu), "1/s"),
            Metric::new("events_per_wall_s", median(&per_wall), "1/s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("peak_rss_mib", peak_rss, "MiB"),
            Metric::new("sim_makespan_us", makespan_us, "us"),
            Metric::new("sim_goodput_mbps", offered_bits / makespan_us, "Mbit/s"),
            Metric::new("sim_flight_p50_us", p50, "us"),
            Metric::new("sim_flight_p99_us", p99, "us"),
        ],
    }
}
