//! The benchmark's workloads and the simulated system each one runs on.
//!
//! Every workload is a registered preset from `nectar_sim::workload`
//! on one of the experiment topologies, with the preset's seed
//! replaced by the benchmark's `--seed`. The system is built fresh for
//! every repetition: cold connection caches, empty buffer pools, empty
//! event queue.

use nectar_core::prelude::*;
use nectar_core::world::QuiescenceOutcome;
use nectar_sim::analysis::streaming::{StreamConfig, StreamingDoctor};
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::time::Time;
use nectar_sim::workload::{preset, WorkloadSpec, PRESETS};

/// One benchmark workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The preset the traffic comes from.
    pub preset: &'static str,
    /// Topology constructor.
    pub topo: fn() -> Topology,
    /// Shard count (1 = a plain sequential `World`).
    pub shards: usize,
    /// Streaming doctor attached (as `report --stream --metrics`).
    pub doctor: bool,
    /// Replaces every class's window end, lengthening the preset.
    pub until: Option<Time>,
}

fn mesh() -> Topology {
    Topology::mesh2d(4, 4, 4, 16)
}

fn fat_star() -> Topology {
    Topology::fat_star(8, 8, 16)
}

/// The workloads. Why each was chosen is recorded in `BENCHMARK.json`
/// and `perfbench/README.md`; `spike-2shard` is left out of
/// `BENCHMARK.json` (see the README) but runs the same way by hand.
pub const WORKLOADS: &[Workload] = &[
    Workload { name: "spike", preset: "spike", topo: mesh, shards: 1, doctor: false, until: None },
    Workload {
        name: "lattice",
        preset: "lattice",
        topo: mesh,
        shards: 1,
        doctor: false,
        until: None,
    },
    Workload {
        name: "rpc-doctor",
        preset: "rpc-fanout",
        topo: fat_star,
        shards: 1,
        doctor: true,
        // The preset's 2 ms window holds too few hotspot episodes for a
        // steady tail: at 60 ms the p99 flight latency still ranged
        // 350-979 us across seeds; at 240 ms it stays within 379-457 us.
        until: Some(Time::from_millis(240)),
    },
    Workload {
        name: "spike-2shard",
        preset: "spike",
        topo: mesh,
        shards: 2,
        doctor: false,
        until: None,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The preset's own seed: the seed the stored fingerprints hold for.
    pub fn default_seed(&self) -> u64 {
        PRESETS.iter().find(|p| p.name == self.preset).expect("preset is registered").seed
    }

    /// The generated workload program under `seed`.
    pub fn spec(&self, seed: u64) -> WorkloadSpec {
        let mut spec = preset(self.preset).expect("preset is registered");
        spec.seed = seed;
        if let Some(until) = self.until {
            for class in &mut spec.classes {
                *class = class.between(class.from, until);
            }
        }
        spec
    }

    /// Simulated-time deadline by which the run must be quiescent:
    /// the traffic window plus a generous drain allowance.
    pub fn deadline(&self, spec: &WorkloadSpec) -> Time {
        let window = spec.classes.iter().map(|c| c.until).max().unwrap_or(Time::ZERO);
        window + nectar_sim::time::Dur::from_millis(100)
    }
}

/// The simulated system under test, sequential or sharded.
pub enum Sim {
    /// A plain `World`.
    Seq(Box<World>),
    /// A `ShardedWorld` with two or more shards.
    Sharded(Box<ShardedWorld>),
}

impl Sim {
    /// World construction only (no traffic yet).
    pub fn new(w: &Workload) -> Sim {
        Sim::build(w, w.shards)
    }

    /// [`new`](Sim::new) at `shards` shards instead of the workload's.
    pub fn build(w: &Workload, shards: usize) -> Sim {
        let topo = (w.topo)();
        let cfg = SystemConfig::default();
        let mut sim = if shards > 1 {
            Sim::Sharded(Box::new(ShardedWorld::new(topo, cfg, shards)))
        } else {
            Sim::Seq(Box::new(World::new(topo, cfg)))
        };
        if w.doctor {
            match &mut sim {
                Sim::Seq(world) => world.attach_streaming(StreamConfig::default()),
                Sim::Sharded(world) => world.attach_streaming(StreamConfig::default()),
            }
        }
        sim
    }

    pub fn set_workload(&mut self, spec: &WorkloadSpec) -> Result<(), String> {
        match self {
            Sim::Seq(w) => w.set_workload(spec),
            Sim::Sharded(w) => w.set_workload(spec),
        }
    }

    pub fn run_to_quiescence(&mut self, deadline: Time) -> (u64, QuiescenceOutcome) {
        match self {
            Sim::Seq(w) => w.run_to_quiescence(deadline),
            Sim::Sharded(w) => w.run_to_quiescence(deadline),
        }
    }

    pub fn metrics(&self) -> MetricsRegistry {
        match self {
            Sim::Seq(w) => w.metrics(),
            Sim::Sharded(w) => w.metrics(),
        }
    }

    pub fn finish_streaming(&mut self) -> Option<StreamingDoctor> {
        match self {
            Sim::Seq(w) => w.finish_streaming(),
            Sim::Sharded(w) => w.finish_streaming(),
        }
    }

    pub fn transport_quiescent(&self) -> bool {
        match self {
            Sim::Seq(w) => w.transport_quiescent(),
            Sim::Sharded(w) => w.transport_quiescent(),
        }
    }

    pub fn now(&self) -> Time {
        match self {
            Sim::Seq(w) => w.now(),
            Sim::Sharded(w) => w.now(),
        }
    }

    pub fn events_processed(&self) -> u64 {
        match self {
            Sim::Seq(w) => w.events_processed(),
            Sim::Sharded(w) => w.events_processed(),
        }
    }

    /// Events queued; only a sequential world exposes its queue.
    pub fn pending_events(&self) -> Option<usize> {
        match self {
            Sim::Seq(w) => Some(w.pending_events()),
            Sim::Sharded(_) => None,
        }
    }
}
