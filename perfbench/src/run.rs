//! One repetition of a workload through the public `World` /
//! `ShardedWorld` API: set up, run to quiescence, harvest.

use crate::clock::Stopwatch;
use crate::workloads::{Sim, Workload};
use nectar_core::world::QuiescenceOutcome;
use nectar_sim::analysis::DoctorReport;
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::time::Time;
use nectar_sim::workload::WorkloadSpec;
use std::time::Instant;

/// What one repetition measured and produced.
pub struct Rep {
    /// World construction, seconds (wall).
    pub world_new_s: f64,
    /// `set_workload`, seconds (wall).
    pub set_workload_s: f64,
    /// Run through harvest, host seconds.
    pub wall_s: f64,
    /// Run through harvest, process CPU seconds.
    pub cpu_s: f64,
    /// Simulated events processed.
    pub events: u64,
    pub outcome: QuiescenceOutcome,
    pub transport_quiescent: bool,
    /// Simulated time at quiescence.
    pub makespan: Time,
    pub metrics: MetricsRegistry,
    /// The streaming doctor's final report (doctor workload only).
    pub doctor: Option<DoctorReport>,
}

impl Rep {
    /// Set-up seconds: world construction plus `set_workload`.
    pub fn setup_s(&self) -> f64 {
        self.world_new_s + self.set_workload_s
    }
}

/// Builds the system and attaches the workload, timing each part.
pub fn setup(w: &Workload, spec: &WorkloadSpec) -> (Sim, f64, f64) {
    let t0 = Instant::now();
    let mut sim = Sim::new(w);
    let world_new_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    sim.set_workload(spec).unwrap_or_else(|e| panic!("{}: preset rejected: {e}", w.name));
    (sim, world_new_s, t1.elapsed().as_secs_f64())
}

/// Harvests a finished system: metrics, then the doctor's report.
pub fn harvest(sim: &mut Sim) -> (MetricsRegistry, Option<DoctorReport>) {
    let metrics = sim.metrics();
    let report = sim.finish_streaming().map(|doctor| doctor.into_report(Some(&metrics)));
    (metrics, report)
}

/// One untraced repetition: set up, `run_to_quiescence`, harvest.
pub fn once(w: &Workload, spec: &WorkloadSpec) -> Rep {
    let (mut sim, world_new_s, set_workload_s) = setup(w, spec);
    let clock = Stopwatch::start();
    let (events, outcome) = sim.run_to_quiescence(w.deadline(spec));
    let (metrics, doctor) = harvest(&mut sim);
    let (wall_s, cpu_s) = clock.read();
    Rep {
        world_new_s,
        set_workload_s,
        wall_s,
        cpu_s,
        events,
        outcome,
        transport_quiescent: sim.transport_quiescent(),
        makespan: sim.now(),
        metrics,
        doctor,
    }
}
