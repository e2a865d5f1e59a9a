//! The traced run: per-layer metrics.
//!
//! Spans are recorded from the benchmark's side around every public
//! call it makes (set-up, `run_to_quiescence` in fixed simulated-time
//! slices, harvest), kept in memory, and written out when the run
//! ends. Slicing stops at slice boundaries with `run_to_quiescence`
//! rather than `run_until`, because `run_until` moves the clock to the
//! deadline when the queue drains early, which would change fiber
//! utilisation and so the metrics; the traced run must reproduce the
//! untraced run's fingerprint exactly. Counts come from the public
//! registries (`metrics()`, `runtime_metrics()`, `host_profile()`),
//! host costs per operation from the layer replays.

use crate::check;
use crate::clock::{median, quantile, Stopwatch};
use crate::e2e::{failed_ops, sum_suffix};
use crate::replay;
use crate::run::{self, harvest};
use crate::workloads::{Sim, Workload};
use crate::{Metric, Outcome};
use nectar_core::prelude::ShardedWorld;
use nectar_core::world::QuiescenceOutcome;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::profile::Phase;
use nectar_sim::time::{Dur, Time};
use nectar_sim::workload::WorkloadSpec;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Simulated time per `run_to_quiescence` slice.
const SLICE: Dur = Dur::from_micros(100);

/// Engine events the sharded replay runs on a sequential workload.
const SHARD_REPLAY_EVENTS: u64 = 300_000;

/// One span: a named interval on the benchmark's host clock, with the
/// span that contains it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in nanoseconds.
    fn end(&mut self, id: usize) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        now - span.start_ns
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    fn to_json(&self) -> String {
        let mut s = String::from("{\"traceEvents\": [");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {}}}}}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                (sp.end_ns - sp.start_ns) as f64 / 1e3,
                sp.parent.map_or("null".to_string(), |p| p.to_string())
            );
        }
        s.push_str("]}\n");
        s
    }
}

/// What a sliced run observed.
struct Sliced {
    events: u64,
    outcome: QuiescenceOutcome,
    /// Host ns per simulated event, for every slice that had events.
    ns_per_event: Vec<f64>,
    /// Largest event-queue length seen at a slice boundary (sequential
    /// worlds only).
    pending_peak: Option<usize>,
}

/// Runs `sim` to `deadline` in [`SLICE`] steps, one span per step,
/// stopping early once `stop_after` events have run.
fn sliced(
    sim: &mut Sim,
    deadline: Time,
    spans: &mut Spans,
    parent: usize,
    stop_after: u64,
) -> Sliced {
    let start = sim.events_processed();
    let mut out = Sliced {
        events: 0,
        outcome: QuiescenceOutcome::DeadlineReached,
        ns_per_event: Vec::new(),
        pending_peak: sim.pending_events(),
    };
    let mut t = Time::ZERO;
    while t < deadline && out.events < stop_after {
        t = (t + SLICE).min(deadline);
        let span = spans.begin("run_to_quiescence", Some(parent));
        let (n, outcome) = sim.run_to_quiescence(t);
        let ns = spans.end(span);
        if n > 0 {
            out.ns_per_event.push(ns as f64 / n as f64);
        }
        out.pending_peak = out.pending_peak.max(sim.pending_events());
        out.events = sim.events_processed() - start;
        out.outcome = outcome;
        if outcome == QuiescenceOutcome::Quiescent {
            break;
        }
    }
    out
}

/// Per-window and per-phase figures of a profiled sharded run, from
/// `runtime_metrics()` and the scaling doctor over `host_profile()`.
fn shard_metrics(world: &ShardedWorld, events: u64, cpu_per_wall: f64) -> Vec<Metric> {
    let rt = world.runtime_metrics();
    let windows = rt.counter("runner.windows");
    let analysis = world.profile_analysis().expect("profiling was enabled");
    let phase =
        |p: Phase| -> f64 { analysis.per_shard.iter().map(|s| s.phase_ns[p.index()] as f64).sum() };
    vec![
        Metric::new("shard.windows", windows as f64, "count"),
        Metric::new("shard.events_per_window", events as f64 / windows.max(1) as f64, "count"),
        Metric::new(
            "shard.exchanged_events",
            rt.counter("runner.exchanged_events") as f64,
            "count",
        ),
        Metric::new("shard.step_ns", phase(Phase::Step), "ns"),
        Metric::new("shard.exchange_ns", phase(Phase::OutboxFill), "ns"),
        Metric::new("shard.barrier_wait_ns", phase(Phase::BarrierWait), "ns"),
        Metric::new("shard.drain_ns", phase(Phase::ExchangeDrain), "ns"),
        Metric::new("shard.efficiency", analysis.efficiency, "ratio"),
        Metric::new("shard.serial_fraction", analysis.karp_flatt, "ratio"),
        Metric::new("shard.cpu_per_wall", cpu_per_wall, "ratio"),
        Metric::new("shard.profile_dropped_spans", analysis.spans_dropped as f64, "count"),
    ]
}

/// Sharded replay for a sequential workload: the same spec on two
/// shards, profiled, for its first [`SHARD_REPLAY_EVENTS`] events.
fn shard_replay(w: &Workload, spec: &WorkloadSpec, spans: &mut Spans) -> Vec<Metric> {
    let span = spans.begin("shard_replay", None);
    let mut sim = Sim::build(w, 2);
    let Sim::Sharded(world) = &mut sim else { unreachable!("two shards build a ShardedWorld") };
    world.enable_profiling();
    sim.set_workload(spec).expect("preset accepted");
    let clock = Stopwatch::start();
    let s = sliced(&mut sim, w.deadline(spec), spans, span, SHARD_REPLAY_EVENTS);
    let (wall, cpu) = clock.read();
    spans.end(span);
    let Sim::Sharded(world) = &sim else { unreachable!() };
    shard_metrics(world, s.events, cpu / wall)
}

/// Counts and ratios from the public metrics registry.
fn registry_metrics(m: &MetricsRegistry, cabs: usize, makespan: Time) -> Vec<Metric> {
    let sum = |suffix: &str| sum_suffix(m, suffix) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let utils: Vec<f64> =
        m.gauges().filter(|(k, _)| k.ends_with(".fiber.utilization")).map(|(_, v)| v).collect();
    let busy = sum(".kernel.thread_busy_ns") + sum(".kernel.interrupt_busy_ns");
    let opens = sum(".opens_succeeded");
    let hits = m.counter("pool.hits") as f64;
    let count = |name, suffix: &str| Metric::new(name, sum(suffix), "count");
    vec![
        count("hub.packets_forwarded", ".packets_forwarded"),
        count("hub.commands_executed", ".commands_executed"),
        Metric::new("hub.open_success_ratio", ratio(opens, opens + sum(".opens_failed")), "ratio"),
        count("hub.opens_retried", ".opens_retried"),
        Metric::new("hub.drops_overflows", sum(".drops") + sum(".overflows"), "count"),
        Metric::new("pool.hit_ratio", ratio(hits, hits + m.counter("pool.misses") as f64), "ratio"),
        count("cab.dma_transfers", ".dma.transfers"),
        Metric::new("cab.dma_bytes", sum(".dma.bytes_moved"), "B"),
        count("cab.packets_tx", ".packets_tx"),
        count("cab.checksum_ops", ".checksum_ops"),
        Metric::new(
            "cab.fiber_util_mean",
            utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            "ratio",
        ),
        count("kernel.thread_switches", ".kernel.thread_switches"),
        count("kernel.interrupts", ".kernel.interrupts"),
        Metric::new(
            "kernel.busy_frac",
            ratio(busy, cabs as f64 * makespan.nanos() as f64),
            "ratio",
        ),
        count("kernel.mailbox_rejects", ".mailbox_rejects"),
        count("transport.data_sent", ".transport.data_sent"),
        count("transport.accepted", ".transport.accepted"),
        Metric::new(
            "transport.retransmit_ratio",
            ratio(sum(".transport.retransmissions"), sum(".transport.data_sent")),
            "ratio",
        ),
        count("transport.timeouts", ".transport.timeouts"),
        count("workload.flows", ".workload.flows"),
        Metric::new("workload.bytes", sum(".workload.bytes"), "B"),
        count("workload.rearms", ".workload.rearms"),
        count("workload.replies", ".workload.replies"),
    ]
}

/// Writes the spans under the build directory (`CARGO_TARGET_DIR`,
/// else this package's `target`), inside the checkout.
fn write_spans(spans: &Spans, w: &Workload, seed: u64) -> String {
    let dir = std::env::var("CARGO_TARGET_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/target").into());
    let path = format!("{dir}/perfbench-spans-{}-{seed}.json", w.name);
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, spans.to_json())) {
        Ok(()) => format!("spans={path} ({} spans)", spans.spans.len()),
        Err(e) => format!("spans not written to {path}: {e}"),
    }
}

/// The traced run for `seconds`: untraced and traced repetitions in
/// pairs (at least one pair), then the layer replays.
pub fn measure(w: &Workload, spec: &WorkloadSpec, default_seed: bool, seconds: u64) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut spans = Spans::new();
    let mut errors = Vec::new();
    let mut samples: BTreeMap<(&'static str, &'static str), Vec<f64>> = BTreeMap::new();
    let mut last = None;
    let mut pairs = 0;
    while pairs == 0 || start.elapsed() < budget {
        pairs += 1;
        let plain = run::once(w, spec);

        let root = spans.begin("traced_run", None);
        let setup = spans.begin("setup", Some(root));
        let span = spans.begin("world_new", Some(setup));
        let mut sim = Sim::new(w);
        if let Sim::Sharded(world) = &mut sim {
            world.enable_profiling();
        }
        let world_new_ns = spans.end(span);
        let span = spans.begin("set_workload", Some(setup));
        sim.set_workload(spec).expect("preset accepted");
        let set_workload_ns = spans.end(span);
        spans.end(setup);
        let deadline = w.deadline(spec);
        let clock = Stopwatch::start();
        let run_span = spans.begin("run", Some(root));
        let s = sliced(&mut sim, deadline, &mut spans, run_span, u64::MAX);
        spans.end(run_span);
        let span = spans.begin("harvest", Some(root));
        let (metrics, doctor) = harvest(&mut sim);
        let harvest_ns = spans.end(span);
        let (wall, cpu) = clock.read();
        spans.end(root);

        let traced = run::Rep {
            world_new_s: world_new_ns as f64 * 1e-9,
            set_workload_s: set_workload_ns as f64 * 1e-9,
            wall_s: wall,
            cpu_s: cpu,
            events: s.events,
            outcome: s.outcome,
            transport_quiescent: sim.transport_quiescent(),
            makespan: sim.now(),
            metrics,
            doctor,
        };
        for rep in [&plain, &traced] {
            if let Err(e) = check::structural(w, rep) {
                errors.push(e);
            }
        }
        let json = traced.metrics.to_json();
        if let Err(e) =
            check::same_metrics(w, "traced vs untraced", &json, &plain.metrics.to_json())
        {
            errors.push(e);
        }
        if default_seed {
            if let Err(e) = check::against_stored(w, &json) {
                errors.push(e);
            }
        }
        let mut pair = vec![
            Metric::new("core.world_new_ns", world_new_ns as f64, "ns"),
            Metric::new("core.set_workload_ns", set_workload_ns as f64, "ns"),
            Metric::new("core.slice_ns_per_event.p50", quantile(&s.ns_per_event, 0.50), "ns"),
            Metric::new("core.slice_ns_per_event.p99", quantile(&s.ns_per_event, 0.99), "ns"),
            Metric::new("core.harvest_ns", harvest_ns as f64, "ns"),
            Metric::new("trace.overhead_ratio", traced.cpu_s / plain.cpu_s, "ratio"),
        ];
        if let Sim::Sharded(world) = &sim {
            pair.extend(shard_metrics(world, s.events, cpu / wall));
        }
        for m in pair {
            samples.entry((m.name, m.unit)).or_default().push(m.value);
        }
        last = Some((traced, s.pending_peak));
    }
    let (traced, pending_peak) = last.expect("at least one pair ran");

    // A sharded world hides its queue: take the peak from a sliced
    // sequential run, which must also reproduce the sharded metrics.
    let pending_peak = match pending_peak {
        Some(p) => p,
        None => {
            let span = spans.begin("sequential_reference", None);
            let mut seq = Sim::build(w, 1);
            seq.set_workload(spec).expect("preset accepted");
            let s = sliced(&mut seq, w.deadline(spec), &mut spans, span, u64::MAX);
            spans.end(span);
            let json = seq.metrics().to_json();
            if let Err(e) =
                check::same_metrics(w, "sharded vs sequential", &traced.metrics.to_json(), &json)
            {
                errors.push(e);
            }
            s.pending_peak.unwrap_or(0)
        }
    };
    if w.shards == 1 {
        for m in shard_replay(w, spec, &mut spans) {
            samples.entry((m.name, m.unit)).or_default().push(m.value);
        }
    }

    let span = spans.begin("layer_replays", None);
    let replays = replay::all(w, spec, pending_peak);
    spans.end(span);

    let mut metrics: Vec<Metric> =
        samples.iter().map(|(&(name, unit), v)| Metric::new(name, median(v), unit)).collect();
    metrics.push(Metric::new("core.pending_peak", pending_peak as f64, "count"));
    metrics.push(Metric::new("engine.events", traced.events as f64, "count"));
    let cabs = (w.topo)().cab_count();
    metrics.extend(registry_metrics(&traced.metrics, cabs, traced.makespan));
    metrics.extend(replays);

    let notes = vec![
        format!("traced pairs={pairs} events={}", traced.events),
        write_spans(&spans, w, spec.seed),
    ];
    Outcome {
        errors,
        attempted: sum_suffix(&traced.metrics, ".workload.flows"),
        failed: failed_ops(&traced.metrics),
        notes,
        metrics,
    }
}
