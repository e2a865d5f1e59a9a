//! E26 — conservative-parallel scale: one simulated Nectar on all
//! cores, bit-identical to the sequential run.
//!
//! The paper's network is parallel in space: HUB clusters joined by
//! fibers whose minimum transit latency lower-bounds cross-cluster
//! influence. The `e26` family builds the two topologies where that
//! structure is big enough to matter — an 8-leaf fat-star and a 4×4
//! mesh, 64 CABs each — floods them with mostly cluster-local stream
//! traffic, and runs the same workload on a
//! [`ShardedWorld`](nectar_core::shard::ShardedWorld) at
//! `report --shards N`.
//!
//! When `--shards` exceeds one, each experiment also runs the 1-shard
//! reference in the same process, reports the speedup, and diffs the
//! two metrics registries. A mismatch prints `DETERMINISM VIOLATED`
//! in the table notes — CI greps for exactly that string, so a window
//! protocol bug can never hide behind a good-looking speedup number.

use crate::experiments::{note_determinism, ExpCtx};
use crate::table::Table;
use nectar_core::prelude::*;
use nectar_core::world::AppSend;
use nectar_sim::chaos::{ChaosSchedule, Clause, Fault};
use nectar_sim::metrics::MetricsRegistry;
use nectar_sim::time::Time;
use std::sync::Arc;
use std::time::Instant;

/// Traffic rounds per run. Sized so a run is long enough to measure
/// (about a million simulation events on the 64-CAB topologies) yet
/// quick enough for CI.
const ROUNDS: u64 = 24;

/// A dense, schedule-upfront stream workload over `topo`: every CAB
/// streams to a rotating neighbour on its own HUB each round, and
/// every third CAB also streams to its counterpart half the system
/// away (cross-HUB, and under sharding cross-shard). The mix mirrors
/// the locality argument of the paper — most traffic stays inside a
/// cluster, the backbone carries the rest — and gives every shard
/// enough same-window work to amortize the barrier.
fn scaled_workload(topo: &Topology) -> Vec<(Time, usize, AppSend)> {
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); topo.hub_count()];
    for c in 0..topo.cab_count() {
        clusters[topo.cab_attachment(c).0].push(c);
    }
    clusters.retain(|m| !m.is_empty());
    let mut sends = Vec::new();
    for round in 0..ROUNDS {
        let at = Time::from_micros(3 + 15 * round);
        for (ci, members) in clusters.iter().enumerate() {
            for (mi, &src) in members.iter().enumerate() {
                if members.len() > 1 {
                    let dst = members[(mi + 1 + round as usize) % members.len()];
                    if dst != src {
                        let data: Arc<[u8]> =
                            vec![(src as u64 * 13 + round) as u8; 640 + 96 * (round as usize % 3)]
                                .into();
                        sends.push((
                            at,
                            src,
                            AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 40, data },
                        ));
                    }
                }
                if clusters.len() > 1 && mi % 3 == 0 {
                    let far = &clusters[(ci + clusters.len() / 2) % clusters.len()];
                    let dst = far[mi % far.len()];
                    if dst != src {
                        let data: Arc<[u8]> = vec![(src as u64 + 7 * round) as u8; 512].into();
                        sends.push((
                            at,
                            src,
                            AppSend::Stream { dst, src_mailbox: 1, dst_mailbox: 41, data },
                        ));
                    }
                }
            }
        }
    }
    sends
}

/// One timed run's measurements, before any table formatting.
struct TimedRun {
    /// Simulation events processed.
    events: u64,
    /// Wall-clock seconds.
    wall_s: f64,
    /// The simulated metrics, compared against the 1-shard reference.
    metrics: MetricsRegistry,
    /// Runner counters (windows, barrier wait, exchanged events).
    runtime: MetricsRegistry,
    /// Scaling-doctor analysis, when the ctx asked for `--profile`.
    profile: Option<nectar_sim::profile::ProfileAnalysis>,
}

/// One timed run of the workload at `shards` shards. Only the `absorb`
/// run feeds the table's metrics/trace so a reference run never
/// double-counts.
fn timed_run(
    topo: &Topology,
    sends: &[(Time, usize, AppSend)],
    shards: usize,
    chaos: Option<&ChaosSchedule>,
    ctx: &ExpCtx,
    table: &mut Table,
    absorb: bool,
) -> TimedRun {
    let t0 = Instant::now();
    let mut world = ShardedWorld::new(topo.clone(), SystemConfig::default(), shards);
    // Both the measured run and the 1-shard reference get the same
    // capture setup (including streaming): draining rings changes the
    // `telemetry.dropped_events` counter under tight capacities, and
    // the determinism diff must compare like with like.
    ctx.prepare_sharded(&mut world);
    if let Some(s) = chaos {
        world.set_chaos(s.clone());
    }
    for (at, cab, send) in sends {
        world.schedule_send(*at, *cab, send.clone());
    }
    let (events, _) = world.run_to_quiescence(Time::from_millis(100));
    let wall_s = t0.elapsed().as_secs_f64();
    let metrics = world.metrics();
    assert!(
        chaos.is_some() || world.transport_quiescent(),
        "{}: scale workload failed to drain — deadline too tight",
        table.id
    );
    let profile = world.profile_analysis();
    if absorb {
        ctx.absorb_sharded(table, &mut world);
    } else if ctx.stream {
        // The reference run streams too (same capture setup), but its
        // doctor's verdict is redundant — just detach it.
        world.finish_streaming();
    }
    TimedRun { events, wall_s, metrics, runtime: world.runtime_metrics(), profile }
}

/// Shared runner: main run at `ctx.shards`, plus (when parallel) the
/// 1-shard reference, speedup note, and the determinism diff.
fn run_scale(id: &'static str, title: &str, topo: Topology, ctx: &ExpCtx) -> Table {
    let mut table =
        Table::new(id, title.to_string(), &["config", "shards", "events", "wall", "events/sec"]);
    let cabs = topo.cab_count();
    let hubs = topo.hub_count();
    let shards = ctx.shard_count().min(hubs);
    let sends = scaled_workload(&topo);
    let config = format!("{hubs} HUBs / {cabs} CABs / {} sends", sends.len());

    let run = timed_run(&topo, &sends, shards, None, ctx, &mut table, true);
    let (events, wall) = (run.events, run.wall_s);
    table.record_events(events);
    let eps = events as f64 / wall.max(1e-9);
    table.row(&[
        config.clone(),
        shards.to_string(),
        events.to_string(),
        format!("{:.1} ms", wall * 1e3),
        format!("{eps:.0}"),
    ]);

    if shards > 1 {
        let (windows, wait_ns, exchanged) = (
            run.runtime.counter("runner.windows"),
            run.runtime.counter("runner.barrier_wait_ns"),
            run.runtime.counter("runner.exchanged_events"),
        );
        table.note(format!(
            "runner: {windows} windows, {:.1} ms total barrier wait, \
             {exchanged} cross-shard events exchanged",
            wait_ns as f64 / 1e6
        ));
        let reference = timed_run(&topo, &sends, 1, None, ctx, &mut table, false);
        let (ref_events, ref_wall) = (reference.events, reference.wall_s);
        table.record_events(ref_events);
        let ref_eps = ref_events as f64 / ref_wall.max(1e-9);
        table.row(&[
            config,
            "1 (reference)".to_string(),
            ref_events.to_string(),
            format!("{:.1} ms", ref_wall * 1e3),
            format!("{ref_eps:.0}"),
        ]);
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        table.note(format!(
            "speedup at {shards} shards: {:.2}x events/sec ({cores}-core host{})",
            eps / ref_eps,
            if cores < shards { "; shards oversubscribed, no speedup possible" } else { "" }
        ));
        note_determinism(
            &mut table,
            shards,
            (events, &run.metrics),
            (ref_events, &reference.metrics),
        );
    }
    let lookahead = SystemConfig::default().hub.lookahead();
    table.note(format!(
        "conservative window: HubConfig::lookahead() = {} ns per round",
        lookahead.nanos()
    ));
    table
}

/// E26: 8-leaf fat-star (a root HUB fanning out to 8 leaf HUBs, 8
/// CABs each — 64 CABs). Leaf-local traffic dominates; the root
/// carries the cross-leaf flows, exactly the shape where sharding by
/// HUB cluster should pay.
pub fn e26_fat_star(ctx: &ExpCtx) -> Table {
    run_scale("e26", "scale: sharded fat-star (64 CABs)", Topology::fat_star(8, 8, 16), ctx)
}

/// E26b: 4×4 mesh of HUBs, 4 CABs each (64 CABs). The mesh has no
/// privileged root, so cross-shard edges appear on every side of
/// every contiguous block — the stress case for the window barrier.
pub fn e26b_mesh(ctx: &ExpCtx) -> Table {
    run_scale("e26b", "scale: sharded 4x4 mesh (64 CABs)", Topology::mesh2d(4, 4, 4, 16), ctx)
}

/// One measured point on the speedup curve produced by
/// [`scaling_sweep`].
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Experiment id (`e26`, `e26b`).
    pub experiment: &'static str,
    /// Human-readable topology description.
    pub topology: &'static str,
    /// Shard count this point ran at (clamped to the HUB count).
    pub shards: usize,
    /// Whether the run carried the sweep's chaos schedule.
    pub chaos: bool,
    /// Simulation events processed.
    pub events: u64,
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// YAWNS windows executed (0 for the 1-shard run, which skips the
    /// window protocol entirely).
    pub windows: u64,
    /// Total nanoseconds all shards spent waiting at barriers.
    pub barrier_wait_ns: u64,
    /// Cross-shard events moved through the batched exchange.
    pub exchanged_events: u64,
    /// Whether this point's metrics registry is bit-identical to the
    /// 1-shard reference for the same topology and schedule.
    pub deterministic: bool,
    /// Host-time bottleneck attribution for this point — per-shard
    /// phase breakdown, parallel efficiency, Karp–Flatt estimate, and
    /// the scaling doctor's ranked verdict. Present when the sweep ran
    /// with profiling on.
    pub profile: Option<nectar_sim::profile::ProfileAnalysis>,
}

/// Measures the speedup curve behind `report --scaling`: each e26
/// topology, clean and under a fixed chaos schedule, at every shard
/// count in `shard_counts` (deduplicated, clamped to the HUB count, 1
/// always included as the reference). Every multi-shard point is
/// bit-compared against the 1-shard reference — the curve is only
/// worth plotting if it measures the *same* computation at every x.
/// With `profile` set, every point also carries the scaling doctor's
/// bottleneck attribution (the determinism diff proves profiling does
/// not perturb the simulated results).
pub fn scaling_sweep(shard_counts: &[usize], profile: bool) -> Vec<ScalingPoint> {
    let chaos = ChaosSchedule::new(0xC0FFEE)
        .with(Clause::new(Fault::Loss { rate: 0.02 }))
        .with(Clause::new(Fault::Duplicate { rate: 0.01 }));
    let topologies: [(&'static str, &'static str, Topology); 2] = [
        ("e26", "fat_star(8,8,16)", Topology::fat_star(8, 8, 16)),
        ("e26b", "mesh2d(4,4,4,16)", Topology::mesh2d(4, 4, 4, 16)),
    ];
    let ctx = ExpCtx { shards: 1, profile, ..ExpCtx::default() };
    let mut points = Vec::new();
    for (id, desc, topo) in topologies {
        let hubs = topo.hub_count();
        let mut counts: Vec<usize> =
            shard_counts.iter().map(|&s| s.clamp(1, hubs)).chain(std::iter::once(1)).collect();
        counts.sort_unstable();
        counts.dedup();
        let sends = scaled_workload(&topo);
        for use_chaos in [false, true] {
            let schedule = use_chaos.then_some(&chaos);
            let mut reference: Option<(u64, MetricsRegistry)> = None;
            for &shards in &counts {
                let mut scratch = Table::new(id, "scaling sweep", &[]);
                let run = timed_run(&topo, &sends, shards, schedule, &ctx, &mut scratch, false);
                let deterministic = match &reference {
                    None => {
                        reference = Some((run.events, run.metrics));
                        true
                    }
                    Some((ref_events, r)) => note_determinism(
                        &mut scratch,
                        shards,
                        (run.events, &run.metrics),
                        (*ref_events, r),
                    ),
                };
                points.push(ScalingPoint {
                    experiment: id,
                    topology: desc,
                    shards,
                    chaos: use_chaos,
                    events: run.events,
                    wall_s: run.wall_s,
                    windows: run.runtime.counter("runner.windows"),
                    barrier_wait_ns: run.runtime.counter("runner.barrier_wait_ns"),
                    exchanged_events: run.runtime.counter("runner.exchanged_events"),
                    deterministic,
                    profile: run.profile,
                });
            }
        }
    }
    points
}
