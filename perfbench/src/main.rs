//! The Nectar simulator benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Builds the simulated system for one workload through the public
//! `World` / `ShardedWorld` API, runs it to quiescence repeatedly for
//! `--seconds`, checks the outputs, and prints one JSON result as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is the traced run, which reports per-layer
//! metrics from spans around each call plus layer replays. A failed
//! check prints the reason on standard error and exits with status 1;
//! bad arguments exit with status 2.

mod check;
mod clock;
mod e2e;
mod host;
mod replay;
mod run;
mod traced;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1] \
                     [--write-expected PATH]";

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a run produced: metrics, the operation tally, informational
/// lines, and every failed check.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub errors: Vec<String>,
}

/// Parsed command line.
struct Args {
    workload: &'static workloads::Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    write_expected: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut write_expected = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(workloads::find(name).ok_or_else(|| {
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| {
                    format!("--seed: '{v}' is not a whole number in 0..=18446744073709551615")
                })?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<u64>() {
                    Ok(s @ 1..=3600) => s,
                    _ => return Err(format!("--seconds: '{v}' is not a whole number in 1..=3600")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: '{v}' is not 0 or 1")),
                };
            }
            "--write-expected" => write_expected = Some(value()?.clone()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, write_expected })
}

/// The last line of standard output: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_line(correct: bool, out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let default_seed = w.default_seed();
    let seed = args.seed.unwrap_or(default_seed);
    let spec = w.spec(seed);
    println!("# workload={} seed={seed} spec=\"{}\"", w.name, spec.spec());
    println!("# host {}", host::stamp());

    if let Some(path) = &args.write_expected {
        let rep = run::once(w, &spec);
        if let Err(e) = std::fs::write(path, rep.metrics.to_json() + "\n") {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("# wrote {path}");
        return ExitCode::SUCCESS;
    }

    let out = if args.trace {
        traced::measure(w, &spec, seed == default_seed, args.seconds)
    } else {
        e2e::measure(w, &spec, seed == default_seed, args.seconds)
    };
    for note in &out.notes {
        println!("# {note}");
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!("{}", result_line(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_full_command_line() {
        let a = parse(&["--workload", "lattice", "--seed", "7", "--seconds", "3", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.name, "lattice");
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), 3, true));
        let d = parse(&["--workload", "spike"]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (None, 10, false));
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let out = Outcome {
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            attempted: 3,
            failed: 0,
            notes: vec![],
            errors: vec![],
        };
        let line = result_line(true, &out);
        let j = nectar_sim::json::parse(&line).unwrap();
        let keys: Vec<&str> = j.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted").and_then(|a| a.as_f64()), Some(3.0));
        let setup = j.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
    }
}
