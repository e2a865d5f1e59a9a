//! Prints the paper-vs-measured table for every experiment (or a
//! selected subset named on the command line), optionally fanning the
//! experiments out over worker threads, and writes a machine-readable
//! `BENCH_sim.json` next to the report.
//!
//! Usage:
//!
//! ```text
//! report [--list] [--jobs N] [--shards N] [--json PATH] [--metrics]
//!        [--doctor] [--compare BASELINE] [--trace EXP] [--trace-out PATH]
//!        [ids... | all]
//! ```
//!
//! `--metrics` harvests every experiment's counters and latency
//! histograms into the `metrics` object of `BENCH_sim.json`.
//! `--trace EXP` records the flight recorder while experiment `EXP`
//! runs and writes a Chrome trace-event file (load it in Perfetto or
//! `chrome://tracing`) to `--trace-out`, default `trace_<EXP>.json`.
//! `--doctor` runs `nectar-doctor` over every selected experiment that
//! supports tracing: a per-segment "where did the time go" table plus
//! pathology findings (see `docs/observability.md`).
//! `--compare BASELINE` diffs this run's metrics against a committed
//! baseline (`BENCH_baseline.json`) and exits non-zero on regression —
//! the CI perf gate. Implies `--metrics`.
//! `--chaos-seed N [--chaos-spec 'PROG']` replays one exact fault
//! schedule through the chaos experiments (e25 family) — the flags a
//! failing campaign test prints. Without `--chaos-spec` the schedule
//! is regenerated from the seed.
//! `--shards N` runs the conservative-parallel experiments (the e26
//! scale family) with the simulated world split across `N` shard
//! threads (see DESIGN.md §11); other experiments ignore it.
//! `--repeat N` runs every selected experiment `N` times: the reported
//! wall time is the median, and the harness asserts the simulated
//! metrics are identical across repeats (wall-clock may jitter;
//! simulated results may not).
//! `--scaling` additionally measures the speedup curve — the e26
//! topologies, clean and under chaos, at a sweep of shard counts, each
//! point bit-compared against its 1-shard reference — and records it
//! as the `scaling` array of `BENCH_sim.json` together with the host
//! description (`docs/parallel.md`, "Measuring the speedup curve").
//! `--profile` turns on the host-time profiler for every sharded world
//! (`docs/parallel.md`, "Reading the host-time profile"): per-shard
//! phase breakdowns, parallel efficiency, the Karp–Flatt serial
//! fraction, and the scaling doctor's ranked bottleneck verdict, per
//! experiment and (with `--scaling`) per speedup-curve point. Purely
//! observational: the determinism diffs prove the simulated metrics
//! are bit-identical with it on or off. Combined with `--trace` on an
//! e26 experiment, the Chrome trace gains host-time tracks next to the
//! simulated ones.
//!
//! Every experiment builds its own world, so they are embarrassingly
//! parallel: with `--jobs N` the registry is drained by `N` scoped
//! worker threads claiming indices from an atomic counter. Output
//! stays deterministic — each worker renders its table (which can be
//! sizable under `--metrics`) to a string off the lock, and the main
//! thread flushes everything once, in registry order, through a single
//! locked stdout regardless of completion order.

use nectar_bench::experiments::{ExpCtx, Experiment, TRACEABLE};
use nectar_bench::registry;
use nectar_bench::table::Table;
use nectar_sim::json::json_escape;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Outcome {
    id: &'static str,
    table: Table,
    /// The table pre-rendered in the worker thread: rendering touches
    /// every row and metric, so under `--jobs` it happens off the main
    /// thread and the flush is a single buffered write.
    rendered: String,
    /// Median wall time across repeats.
    wall: Duration,
    /// Every repeat's wall time, in run order — `--repeat N` jitter
    /// lands in the JSON host object, not just the median.
    walls: Vec<Duration>,
}

fn usage() -> ! {
    eprintln!(
        "usage: report [--list] [--jobs N] [--shards N] [--repeat N] \
         [--scaling] [--profile] [--json PATH] [--metrics] [--doctor] \
         [--stream] [--telemetry-cap N] [--stream-budget BYTES] \
         [--compare BASELINE] [--trace EXP] [--trace-out PATH] \
         [--chaos-seed N] [--chaos-spec PROG] [--workload SPEC|PRESET] \
         [ids... | all]"
    );
    std::process::exit(2);
}

/// Exits non-zero with a message naming the offending flag/token —
/// a malformed invocation must never be silently reinterpreted.
fn bad_invocation(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, or a non-zero exit naming the flag.
fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> String {
    args.next().unwrap_or_else(|| bad_invocation(&format!("{flag} requires a value")))
}

/// Parses `flag`'s value, or exits non-zero naming the bad token.
fn parse_flag<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| bad_invocation(&format!("invalid value `{value}` for {flag}")))
}

/// Parses `flag`'s value and rejects zero — these are counts where
/// zero means "run nothing", which is never what the caller wanted.
fn parse_positive(flag: &str, value: &str) -> usize {
    let n: usize = parse_flag(flag, value);
    if n == 0 {
        bad_invocation(&format!("{flag} must be at least 1, got `{value}`"));
    }
    n
}

fn main() {
    let mut jobs: usize = 1;
    let mut shards: usize = 1;
    let mut repeat: usize = 1;
    let mut scaling = false;
    let mut profile = false;
    let mut json_path = String::from("BENCH_sim.json");
    let mut ids: Vec<String> = Vec::new();
    let mut list = false;
    let mut metrics = false;
    let mut doctor = false;
    let mut stream = false;
    let mut telemetry_cap: Option<usize> = None;
    let mut stream_budget: Option<usize> = None;
    let mut compare_path: Option<String> = None;
    let mut trace_id: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut chaos_spec: Option<String> = None;
    let mut workload: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--chaos-seed" => {
                let v = flag_value("--chaos-seed", &mut args);
                chaos_seed = Some(parse_flag("--chaos-seed", &v));
            }
            "--chaos-spec" => {
                let v = flag_value("--chaos-spec", &mut args);
                // Validate the grammar now (the seed does not affect
                // parsing) so a typo fails before any experiment runs.
                if let Err(e) = nectar_sim::chaos::ChaosSchedule::parse(0, &v) {
                    bad_invocation(&format!("--chaos-spec `{v}`: {e}"));
                }
                chaos_spec = Some(v);
            }
            "--workload" => {
                let v = flag_value("--workload", &mut args);
                if nectar_sim::workload::preset(&v).is_none() {
                    if let Err(e) = nectar_sim::workload::WorkloadSpec::parse(0, &v) {
                        bad_invocation(&format!(
                            "--workload `{v}` is neither a registered preset nor a \
                             parsable spec: {e}"
                        ));
                    }
                }
                workload = Some(v);
            }
            "--list" | "list" => list = true,
            "--jobs" | "-j" => jobs = parse_positive("--jobs", &flag_value("--jobs", &mut args)),
            "--shards" => shards = parse_positive("--shards", &flag_value("--shards", &mut args)),
            "--repeat" => repeat = parse_positive("--repeat", &flag_value("--repeat", &mut args)),
            "--scaling" => scaling = true,
            "--profile" => profile = true,
            "--json" => json_path = flag_value("--json", &mut args),
            "--metrics" => metrics = true,
            "--doctor" => doctor = true,
            "--stream" => stream = true,
            "--telemetry-cap" => {
                let v = flag_value("--telemetry-cap", &mut args);
                telemetry_cap = Some(parse_positive("--telemetry-cap", &v));
            }
            "--stream-budget" => {
                let v = flag_value("--stream-budget", &mut args);
                stream_budget = Some(parse_flag("--stream-budget", &v));
            }
            "--compare" => compare_path = Some(flag_value("--compare", &mut args)),
            "--trace" => trace_id = Some(flag_value("--trace", &mut args).to_lowercase()),
            "--trace-out" => trace_out = Some(flag_value("--trace-out", &mut args)),
            other if other.starts_with('-') => {
                eprintln!("report: unknown flag `{other}`");
                usage()
            }
            other => ids.push(other.to_lowercase()),
        }
    }
    // All analysis modes need the data they analyze (the streaming
    // doctor's mailbox detector reads the metrics registry).
    if doctor || stream || compare_path.is_some() {
        metrics = true;
    }
    let reg = registry();
    if list {
        for (id, desc, _) in &reg {
            println!("{id:>5}  {desc}");
        }
        return;
    }
    let selected: Vec<_> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        reg
    } else {
        // Every named id must exist: a typo that silently shrinks the
        // selection would report success over the wrong experiments.
        let unknown: Vec<&String> =
            ids.iter().filter(|a| !reg.iter().any(|(id, _, _)| *id == a.as_str())).collect();
        if !unknown.is_empty() {
            for a in &unknown {
                eprintln!("report: unknown experiment id `{a}`");
            }
            eprintln!("try --list for the registry");
            std::process::exit(1);
        }
        reg.into_iter().filter(|(id, _, _)| ids.contains(&id.to_string())).collect()
    };
    println!("Nectar reproduction — experiment report");
    println!("(shape reproduction: simulator seeded with the paper's constants)\n");

    if let Some(tid) = &trace_id {
        if !selected.iter().any(|(id, _, _)| id == tid) {
            eprintln!("--trace {tid} names an experiment outside the selection; try --list");
            std::process::exit(1);
        }
    }
    let base_ctx = ExpCtx {
        metrics,
        trace: false,
        chaos_seed,
        chaos_spec,
        workload,
        shards,
        stream,
        telemetry_cap,
        stream_budget,
        profile,
    };
    let results = run_experiments(&selected, jobs, repeat, &base_ctx, doctor, trace_id.as_deref());
    {
        // One write per run: the tables were rendered in the workers,
        // so the flush never interleaves with anything.
        use std::io::Write;
        let mut out = std::io::stdout().lock();
        for r in &results {
            writeln!(out, "{}", r.rendered).expect("stdout write");
        }
    }
    if stream {
        print_stream(&results);
    }
    if doctor {
        print_doctor(&results);
    }
    if profile {
        print_profile(&results);
    }
    if let Some(tid) = &trace_id {
        let r = results.iter().find(|r| r.id == tid).expect("traced experiment ran");
        let path = trace_out.unwrap_or_else(|| format!("trace_{tid}.json"));
        // With --profile, the traced experiment's host-time spans ride
        // along as extra tracks in the same trace file.
        let trace = nectar_sim::export::chrome_trace_with_host(
            &r.table.trace,
            r.table.host_profile.as_ref(),
        );
        match std::fs::write(&path, &trace) {
            Ok(()) => eprintln!(
                "wrote {path} ({} telemetry events{})",
                r.table.trace.len(),
                if r.table.host_profile.is_some() { ", with host-time tracks" } else { "" }
            ),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    let points = if scaling {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let sweep =
            nectar_bench::experiments::scale::scaling_sweep(&[1, 2, 4, shards, cores], profile);
        print_scaling(&sweep);
        sweep
    } else {
        Vec::new()
    };
    let json = render_json(&results, jobs, shards, repeat, &points);
    match std::fs::write(&json_path, &json) {
        Ok(()) => eprintln!("wrote {json_path} ({} experiments)", results.len()),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    if let Some(baseline_path) = compare_path {
        if !run_compare(&baseline_path, &json) {
            std::process::exit(1);
        }
    }
}

/// Formats an experiment's runtime registry (runner counters, ring
/// pressure) as one line — kept visually apart from the bit-compared
/// metrics. `None` when the registry is absent or empty.
fn runtime_line(runtime: Option<&nectar_sim::metrics::MetricsRegistry>) -> Option<String> {
    let rt = runtime?;
    let counters: Vec<String> = rt.counters().map(|(k, v)| format!("{k}={v}")).collect();
    let gauges: Vec<String> = rt.gauges().map(|(k, v)| format!("{k}={v:.0}")).collect();
    if counters.is_empty() && gauges.is_empty() {
        return None;
    }
    Some(format!("  runtime (not bit-compared): {}", [gauges, counters].concat().join(" ")))
}

/// Prints [`runtime_line`] when there is anything to print.
fn print_runtime(runtime: Option<&nectar_sim::metrics::MetricsRegistry>) {
    if let Some(line) = runtime_line(runtime) {
        println!("{line}");
    }
}

/// Prints the host-time profile and the scaling doctor's verdict for
/// every experiment that drove a sharded world under `--profile`.
/// Experiments that never shard have no host profile and are listed as
/// such rather than silently skipped.
fn print_profile(results: &[Outcome]) {
    println!("host-time profile — where the wall-clock went");
    println!("=============================================");
    for r in results {
        let Some(p) = &r.table.profile else { continue };
        println!("\n{} — {} shards, {} windows", r.id, p.shards, p.windows);
        print!("{}", p.render());
    }
    let skipped: Vec<&str> =
        results.iter().filter(|r| r.table.profile.is_none()).map(|r| r.id).collect();
    if !skipped.is_empty() {
        println!("\n(no sharded run to profile for: {})", skipped.join(", "));
    }
    println!();
}

/// Prints the streaming doctor's verdicts: one block per experiment
/// that streamed, with the fold summary ahead of the findings.
fn print_stream(results: &[Outcome]) {
    println!("nectar-doctor --stream — incremental bounded-memory analysis");
    println!("============================================================");
    for r in results {
        let Some(s) = &r.table.stream else { continue };
        let sm = &s.summary;
        println!(
            "\n{} — {} events folded, {} flights ({} retired, {} open at capture end)",
            r.id, sm.events_folded, sm.flights_seen, sm.flights_retired, sm.open_flights
        );
        println!(
            "  fold: peak {} bytes, {} checkpoints, {} forced retirements, {} late events",
            sm.peak_mem_bytes, sm.checkpoints, sm.forced_retirements, sm.late_events
        );
        println!(
            "  rings: high-water mark {} of capacity, {} dropped{}",
            sm.ring_hwm,
            sm.ring_dropped,
            if s.confident { "" } else { " — NOT CONFIDENT" }
        );
        print_runtime(r.table.runtime.as_ref());
        print!("{}", s.rendered);
    }
    let skipped: Vec<&str> =
        results.iter().filter(|r| r.table.stream.is_none()).map(|r| r.id).collect();
    if !skipped.is_empty() {
        println!("\n(no streaming capture for: {})", skipped.join(", "));
    }
    println!();
}

/// Prints the doctor report for every selected experiment that captures
/// telemetry. Experiments outside [`TRACEABLE`] have no event stream to
/// analyze and are listed as such rather than silently skipped.
fn print_doctor(results: &[Outcome]) {
    println!("nectar-doctor — critical path and pathologies");
    println!("=============================================");
    for r in results {
        if !TRACEABLE.contains(&r.id) {
            continue;
        }
        if r.table.stream.is_some() {
            println!("\n{} — streamed (see the --stream section above)", r.id);
            continue;
        }
        println!("\n{} — {} telemetry events", r.id, r.table.trace.len());
        let report = nectar_sim::analysis::diagnose(&r.table.trace, r.table.metrics.as_ref());
        print!("{}", report.render());
        print_runtime(r.table.runtime.as_ref());
    }
    let skipped: Vec<&str> =
        results.iter().map(|r| r.id).filter(|id| !TRACEABLE.contains(id)).collect();
    if !skipped.is_empty() {
        println!("\n(no telemetry capture for: {})", skipped.join(", "));
    }
    println!();
}

/// Diffs this run's metrics JSON against the committed baseline.
/// Returns `false` (gate failed) on regression or unreadable input.
fn run_compare(baseline_path: &str, current_json: &str) -> bool {
    use nectar_sim::analysis::compare::{compare, CompareConfig};
    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("could not read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let baseline = match nectar_sim::json::parse(&baseline_text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("baseline {baseline_path} is not valid JSON: {e:?}");
            return false;
        }
    };
    let current = nectar_sim::json::parse(current_json).expect("render_json emits valid JSON");
    match compare(&baseline, &current, &CompareConfig::default()) {
        Ok(report) => {
            println!("perf gate vs {baseline_path}");
            print!("{}", report.render());
            report.passed()
        }
        Err(e) => {
            eprintln!("compare failed: {e}");
            false
        }
    }
}

/// Runs every selected experiment, on `jobs` worker threads when asked,
/// and returns the outcomes in registry order. With `repeat > 1` each
/// experiment runs that many times: the reported wall time is the
/// median, and the simulated observables (events, metrics registry)
/// are asserted identical across repeats — the determinism contract
/// applied to the harness itself.
fn run_experiments(
    selected: &[Experiment],
    jobs: usize,
    repeat: usize,
    base_ctx: &ExpCtx,
    doctor: bool,
    trace_id: Option<&str>,
) -> Vec<Outcome> {
    let ctx_for = |id: &str| ExpCtx {
        trace: trace_id == Some(id) || (doctor && TRACEABLE.contains(&id)),
        ..base_ctx.clone()
    };
    let execute = |id: &'static str, run: fn(&ExpCtx) -> Table| {
        let mut walls = Vec::with_capacity(repeat);
        let mut table: Option<Table> = None;
        for _ in 0..repeat {
            let t0 = Instant::now();
            let t = run(&ctx_for(id));
            walls.push(t0.elapsed());
            if let Some(prev) = &table {
                assert_eq!(
                    prev.events, t.events,
                    "{id}: event count changed between repeats — nondeterministic experiment"
                );
                let fp = |m: &Option<nectar_sim::metrics::MetricsRegistry>| {
                    m.as_ref().map(|m| m.to_json())
                };
                assert_eq!(
                    fp(&prev.metrics),
                    fp(&t.metrics),
                    "{id}: metrics changed between repeats — nondeterministic experiment"
                );
            }
            table = Some(t);
        }
        let mut sorted = walls.clone();
        sorted.sort_unstable();
        let wall = sorted[sorted.len() / 2];
        let table = table.expect("repeat >= 1");
        // Render while still on the worker: Display walks every row,
        // note, and (under --metrics) histogram, and the result is the
        // only thing main has to push through the stdout lock.
        let mut rendered = table.to_string();
        if let Some(line) = runtime_line(table.runtime.as_ref()) {
            rendered.push_str(&line);
            rendered.push('\n');
        }
        Outcome { id, table, rendered, wall, walls }
    };
    if jobs <= 1 || selected.len() <= 1 {
        return selected.iter().map(|&(id, _, run)| execute(id, run)).collect();
    }
    let slots: Mutex<Vec<Option<Outcome>>> =
        Mutex::new((0..selected.len()).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(selected.len()) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(id, _, run)) = selected.get(idx) else { break };
                let outcome = execute(id, run);
                slots.lock().expect("no worker panicked holding the lock")[idx] = Some(outcome);
            });
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|o| o.expect("every slot filled by a worker"))
        .collect()
}

/// CPUs online on the host (as opposed to CPUs this process may use).
/// Linux-only; elsewhere falls back to the usable count.
fn cpus_online(usable: usize) -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|s| {
            // "0-3,5,7-8" → 6
            let mut n = 0usize;
            for part in s.trim().split(',') {
                match part.split_once('-') {
                    Some((a, b)) => {
                        let (a, b) = (a.parse::<usize>().ok()?, b.parse::<usize>().ok()?);
                        n += b.checked_sub(a)? + 1;
                    }
                    None => {
                        part.parse::<usize>().ok()?;
                        n += 1;
                    }
                }
            }
            Some(n)
        })
        .unwrap_or(usable)
}

/// The `host` member of `BENCH_sim.json`: the structured facts a later
/// `--compare` needs to decide whether wall-clock numbers from this
/// run are comparable at all. `cores` is what the process may actually
/// use (affinity-aware); `pinned` records whether that is fewer than
/// the machine has online. Under `--repeat N` the object also carries
/// `walls_ms` — every repeat's wall time per experiment, in run order,
/// so the jitter behind the reported median is inspectable.
fn host_json(repeat: usize, results: &[Outcome]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let online = cpus_online(cores);
    let walls = if repeat > 1 {
        let per_exp: Vec<String> = results
            .iter()
            .map(|r| {
                let ms: Vec<String> =
                    r.walls.iter().map(|w| format!("{:.3}", w.as_secs_f64() * 1e3)).collect();
                format!("\"{}\": [{}]", json_escape(r.id), ms.join(", "))
            })
            .collect();
        format!(", \"walls_ms\": {{{}}}", per_exp.join(", "))
    } else {
        String::new()
    };
    format!(
        "{{\"cores\": {cores}, \"online\": {online}, \"pinned\": {}, \"repeat\": {repeat}{walls}}}",
        cores < online
    )
}

/// Prints the speedup curve as a table on stdout. When the sweep was
/// profiled, every point also shows its parallel efficiency, Karp–Flatt
/// serial fraction, and the scaling doctor's primary verdict.
fn print_scaling(points: &[nectar_bench::experiments::scale::ScalingPoint]) {
    println!("speedup curve (per point vs its 1-shard reference)");
    let profiled = points.iter().any(|p| p.profile.is_some());
    println!(
        "{:<6} {:<18} {:>6} {:>6} {:>10} {:>9} {:>8} {:>11} {:>9}  deterministic{}",
        "exp",
        "topology",
        "shards",
        "chaos",
        "events",
        "wall",
        "speedup",
        "barrier",
        "exchanged",
        if profiled { "  eff    kf     verdict" } else { "" },
    );
    for p in points {
        let reference = points
            .iter()
            .find(|r| r.experiment == p.experiment && r.chaos == p.chaos && r.shards == 1)
            .expect("sweep always includes the 1-shard reference");
        let attribution = match &p.profile {
            Some(a) => format!(
                "  {:>5.2} {:>6.3} {}",
                a.efficiency,
                a.karp_flatt,
                a.primary().kind.label(),
            ),
            None => String::new(),
        };
        println!(
            "{:<6} {:<18} {:>6} {:>6} {:>10} {:>8.1}ms {:>7.2}x {:>9.1}ms {:>9}  {}{}",
            p.experiment,
            p.topology,
            p.shards,
            p.chaos,
            p.events,
            p.wall_s * 1e3,
            reference.wall_s / p.wall_s.max(1e-9),
            p.barrier_wait_ns as f64 / 1e6,
            p.exchanged_events,
            if p.deterministic { "yes" } else { "NO — DETERMINISM VIOLATED" },
            attribution,
        );
    }
    println!();
}

/// Renders the per-experiment results as `BENCH_sim.json`: wall time,
/// events processed, events/sec, and table notes (the e26 speedup and
/// determinism verdicts live there) for every experiment plus totals,
/// the structured host description, and (under `--scaling`) the
/// measured speedup curve.
fn render_json(
    results: &[Outcome],
    jobs: usize,
    shards: usize,
    repeat: usize,
    scaling: &[nectar_bench::experiments::scale::ScalingPoint],
) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"jobs\": {jobs},\n"));
    s.push_str(&format!("  \"shards\": {shards},\n"));
    s.push_str(&format!("  \"host\": {},\n", host_json(repeat, results)));
    let total_events: u64 = results.iter().map(|r| r.table.events).sum();
    let total_wall: f64 = results.iter().map(|r| r.wall.as_secs_f64()).sum();
    s.push_str(&format!("  \"total_events\": {total_events},\n"));
    s.push_str(&format!("  \"total_wall_ms\": {:.3},\n", total_wall * 1e3));
    s.push_str("  \"experiments\": [\n");
    for (i, r) in results.iter().enumerate() {
        let wall_s = r.wall.as_secs_f64();
        let eps = if wall_s > 0.0 { r.table.events as f64 / wall_s } else { 0.0 };
        let metrics = match &r.table.metrics {
            Some(m) => format!(", \"metrics\": {}", m.to_json()),
            None => String::new(),
        };
        // Runner counters and ring pressure: a sibling of "metrics",
        // never inside it, because "metrics" is the bit-compared
        // determinism fingerprint and these describe the harness.
        let runtime = match &r.table.runtime {
            Some(rt) if !rt.is_empty() => format!(", \"runtime\": {}", rt.to_json()),
            _ => String::new(),
        };
        // Host-time profile: like "runtime", a sibling of "metrics",
        // because host wall-clock is never part of the fingerprint.
        let profile = match &r.table.profile {
            Some(p) => format!(", \"profile\": {}", p.to_json()),
            None => String::new(),
        };
        let stream = match &r.table.stream {
            Some(s) => {
                let sm = &s.summary;
                // The typed doctor verdicts ride inside the stream
                // object: one entry per finding, so CI can gate on
                // detector/severity without parsing rendered text.
                let verdicts: Vec<String> = s
                    .findings
                    .iter()
                    .map(|f| {
                        format!(
                            "{{\"detector\": \"{}\", \"severity\": \"{}\", \
                             \"subject\": \"{}\", \"confident\": {}}}",
                            json_escape(f.detector),
                            f.severity,
                            json_escape(&f.subject),
                            f.confident,
                        )
                    })
                    .collect();
                format!(
                    ", \"stream\": {{\"events_folded\": {}, \"flights_seen\": {}, \
                     \"flights_retired\": {}, \"open_flights\": {}, \"late_events\": {}, \
                     \"forced_retirements\": {}, \"checkpoints\": {}, \"peak_mem_bytes\": {}, \
                     \"ring_hwm\": {}, \"ring_dropped\": {}, \"flights\": {}, \"confident\": {}, \
                     \"verdicts\": [{}]}}",
                    sm.events_folded,
                    sm.flights_seen,
                    sm.flights_retired,
                    sm.open_flights,
                    sm.late_events,
                    sm.forced_retirements,
                    sm.checkpoints,
                    sm.peak_mem_bytes,
                    sm.ring_hwm,
                    sm.ring_dropped,
                    s.flights,
                    s.confident,
                    verdicts.join(", "),
                )
            }
            None => String::new(),
        };
        let notes = if r.table.notes.is_empty() {
            String::new()
        } else {
            let quoted: Vec<String> =
                r.table.notes.iter().map(|n| format!("\"{}\"", json_escape(n))).collect();
            format!(", \"notes\": [{}]", quoted.join(", "))
        };
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}{}{}{}{}{}}}{}\n",
            json_escape(r.id),
            json_escape(&r.table.title),
            wall_s * 1e3,
            r.table.events,
            eps,
            notes,
            metrics,
            runtime,
            profile,
            stream,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]");
    if !scaling.is_empty() {
        s.push_str(",\n  \"scaling\": [\n");
        for (i, p) in scaling.iter().enumerate() {
            let eps = if p.wall_s > 0.0 { p.events as f64 / p.wall_s } else { 0.0 };
            let profile = match &p.profile {
                Some(a) => format!(", \"profile\": {}", a.to_json()),
                None => String::new(),
            };
            s.push_str(&format!(
                "    {{\"experiment\": \"{}\", \"topology\": \"{}\", \"shards\": {}, \
                 \"chaos\": {}, \"events\": {}, \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {eps:.0}, \"windows\": {}, \"barrier_wait_ns\": {}, \
                 \"exchanged_events\": {}, \"deterministic\": {}{}}}{}\n",
                json_escape(p.experiment),
                json_escape(p.topology),
                p.shards,
                p.chaos,
                p.events,
                p.wall_s * 1e3,
                p.windows,
                p.barrier_wait_ns,
                p.exchanged_events,
                p.deterministic,
                profile,
                if i + 1 < scaling.len() { "," } else { "" },
            ));
        }
        s.push_str("  ]");
    }
    s.push_str("\n}\n");
    s
}
