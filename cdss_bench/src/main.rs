//! `cdss_bench`: the update-exchange benchmark of record.
//!
//! Two ways in:
//!
//! * `--workload NAME --seed N --seconds S --trace 0|1` runs one workload
//!   in this process and prints, as the last line of its standard output,
//!   one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//!   every end-to-end metric with `--trace 0`, every per-layer metric
//!   with `--trace 1`. This is the protocol `BENCHMARK.json` names.
//! * Without `--workload` it runs the whole suite, each workload in a
//!   fresh child process (so `peak_rss_mb` and the global `obs` registry
//!   are per workload), and prints every metric by name. See `README.md`.

mod inputs;
mod json;
mod metrics;
mod sched;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{highest_supported_percentile, END_TO_END, PER_LAYER};
use workloads::{Recorder, RunOptions, Workload};

/// The seed the recorded baseline and fingerprints were taken with.
pub const SEED_OF_RECORD: u64 = 11;

/// Parsed command line.
#[derive(Debug, Default, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub rounds: Option<usize>,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
    pub smoke: bool,
    pub out: Option<PathBuf>,
    pub repeat: usize,
    pub compare: Option<(PathBuf, PathBuf)>,
    pub selfcheck: bool,
    pub catalogue: bool,
}

impl Args {
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(SEED_OF_RECORD)
    }
}

const USAGE: &str = "usage:
  cdss_bench [--seed N] [--seconds S | --rounds R] [--traced] [--repeat N] [--out FILE] [--smoke]
  cdss_bench --workload NAME [--seed N] [--seconds S | --rounds R] [--trace 0|1] [--trace-out FILE] [--smoke]
  cdss_bench --compare A.json B.json
  cdss_bench --selfcheck [--seed N]
  cdss_bench --catalogue";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    }
    fn number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?.clone()),
            "--seed" => args.seed = Some(number(value(&mut it, flag)?, flag)?),
            "--seconds" => {
                let seconds: f64 = number(value(&mut it, flag)?, flag)?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(seconds);
            }
            "--rounds" => {
                let rounds: usize = number(value(&mut it, flag)?, flag)?;
                if rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
                args.rounds = Some(rounds);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--repeat" => {
                args.repeat = number(value(&mut it, flag)?, flag)?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--compare" => {
                let a = PathBuf::from(value(&mut it, flag)?);
                let b = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((a, b));
            }
            "--selfcheck" => args.selfcheck = true,
            "--catalogue" => args.catalogue = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// A directory inside the build directory (which the driver keeps inside
/// its checkout) for the files of a persistent system.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running executable has a path");
    exe.parent()
        .expect("an executable lives in a directory")
        .join("cdss_bench_tmp")
        .join(std::process::id().to_string())
}

/// What one workload run produced.
pub struct Outcome {
    pub fingerprint: u32,
    pub rec: Recorder,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.rec.failed == 0
    }
}

/// Run one workload in this process.
pub fn run_workload(workload: &Workload, args: &Args) -> Outcome {
    let scratch = scratch_dir();
    let opts = RunOptions {
        seed: args.seed(),
        seconds: args.seconds,
        // Without a time limit a run is a fixed number of rounds, so its
        // operation counts repeat exactly.
        rounds: args.rounds.or(match args.seconds {
            Some(_) => None,
            None => Some(if args.smoke { 1 } else { workload.rounds }),
        }),
        smoke: args.smoke,
        scratch: scratch.clone(),
    };
    let mut rec = Recorder::new(args.trace);
    let fingerprint = (workload.run)(&mut rec, &opts);
    let _ = std::fs::remove_dir_all(&scratch);
    Outcome { fingerprint, rec }
}

fn metric_json(metrics: &[(&'static str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit_of(name).to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// `--workload`: run, describe the run for a human, and end with the one
/// JSON line the driver reads.
fn workload_mode(workload: &'static Workload, args: &Args) -> ExitCode {
    let outcome = run_workload(workload, args);
    let rec = &outcome.rec;
    println!(
        "workload {} seed {} rounds {} window {:.3}s trace {}",
        workload.name,
        args.seed(),
        rec.rounds,
        rec.window_ns as f64 / 1e9,
        if args.trace { "on" } else { "off" }
    );
    println!("fingerprint {:#010x}", outcome.fingerprint);
    for name in [
        "exchange",
        "read",
        "prov_first",
        "publish",
        "checkpoint",
        "recovery",
    ] {
        let n = rec.sample_count(name);
        if n > 0 {
            let tail = highest_supported_percentile(n)
                .map_or("no percentile (fewer than 20)".to_string(), |p| {
                    format!("p{p}")
                });
            println!("samples {name} {n} (supports up to {tail})");
        }
    }
    println!("samples setup {}", rec.setup_s.len());
    // Round by round, so a stretch the shared host disturbed shows.
    for (name, scale, unit) in [("exchange", 1e6, "ms"), ("read", 1e3, "us")] {
        let p50s: Vec<String> = rec
            .round_p50s(name)
            .iter()
            .map(|ns| format!("{:.3}", ns / scale))
            .collect();
        println!("round medians {name} ({unit}): {}", p50s.join(" "));
    }
    for failure in &rec.failures {
        println!("FAILED {failure}");
    }
    let metrics = if args.trace {
        rec.per_layer()
    } else {
        rec.end_to_end()
    };
    for (name, value) in &metrics {
        println!("  {name:<46} {value:>16.4} {}", unit_of(name));
    }
    if let Some(obs) = rec.obs_events() {
        println!("self time by span (s, count), largest first:");
        for (name, seconds, count) in trace::self_time_table(&rec.tracer, obs).iter().take(14) {
            println!("  {name:<46} {seconds:>12.4} {count:>8}");
        }
        if let Some(path) = &args.trace_out {
            match std::fs::write(path, trace::chrome_trace_json(&rec.tracer, obs)) {
                Ok(()) => println!("chrome trace written to {}", path.display()),
                Err(e) => {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(rec.attempted.max(1) as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", metric_json(&metrics)),
    ]);
    println!("{}", line.render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--catalogue`: the workloads and both metric lists as `BENCHMARK.json`
/// holds them, then the glossary columns that file has no room for.
fn print_catalogue() {
    let workloads = workloads::WORKLOADS
        .iter()
        .map(|w| {
            Json::obj(vec![
                ("name", Json::Str(w.name.into())),
                ("why", Json::Str(w.why.into())),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.label().into())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj(vec![
                ("name", Json::Str(m.name.into())),
                ("unit", Json::Str(m.unit.into())),
                ("better", Json::Str(m.better.label().into())),
            ])
        })
        .collect();
    let spec = Json::obj(vec![
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ]);
    println!("{}", spec.render());
    for m in PER_LAYER {
        let exact = if m.exact { ", exact count" } else { "" };
        println!("{:<46} {:<6} {}{exact}", m.name, m.unit, m.source.label());
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return suite::compare_files(a, b);
    }
    if args.selfcheck {
        return suite::selfcheck(&args);
    }
    if args.catalogue {
        print_catalogue();
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(workload) => workload_mode(workload, &args),
            None => {
                let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload `{name}`; the workloads are {known:?}");
                ExitCode::from(2)
            }
        },
        None => suite::run_suite(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(text: &str) -> Vec<String> {
        text.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse_args(&argv(
            "--workload churn_mixed --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("churn_mixed"));
        assert_eq!(args.seed, Some(7));
        assert_eq!(args.seconds, Some(10.0));
        assert!(args.trace);
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--frobnicate")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// `--smoke` in one process: every workload at a fraction of its size,
    /// oracle on, every metric of both lists present.
    #[test]
    fn smoke_runs_every_workload_and_the_oracle_passes() {
        for workload in workloads::WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    smoke: true,
                    trace,
                    seed: Some(5),
                    ..Args::default()
                };
                let outcome = run_workload(workload, &args);
                let rec = &outcome.rec;
                assert!(
                    outcome.correct(),
                    "{}: {} of {} failed: {:?}",
                    workload.name,
                    rec.failed,
                    rec.attempted,
                    rec.failures
                );
                assert!(rec.attempted > 0 && rec.rounds == 1);
                let metrics = if trace {
                    rec.per_layer()
                } else {
                    rec.end_to_end()
                };
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(metrics.len(), expected);
                for (name, value) in &metrics {
                    assert!(value.is_finite(), "{}: {name} = {value}", workload.name);
                    if !trace {
                        assert!(*value > 0.0, "{}: {name} = {value}", workload.name);
                    }
                }
            }
        }
    }
}
