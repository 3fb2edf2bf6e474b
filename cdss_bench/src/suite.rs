//! The whole suite: every workload in a fresh child process, the result
//! file, `--compare` between two result files and `--selfcheck`.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::metrics::{median, spread, Better, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;
use crate::{unit_of, Args};

/// One child run: what its driver-protocol line said.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    pub metrics: Vec<(String, f64)>,
}

/// Pull the printed fingerprint and the final JSON line out of a child's
/// standard output.
pub fn parse_child_output(stdout: &str) -> Result<(String, ChildRun), String> {
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint "))
        .ok_or("the child printed no fingerprint")?
        .trim()
        .to_string();
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the child printed nothing")?;
    let line = Json::parse(last).map_err(|e| format!("last line is not JSON ({e}): {last}"))?;
    let field = |key: &str| line.get(key).ok_or(format!("result line has no `{key}`"));
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("`metrics` is not an object")?
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Json::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or(format!("metric `{name}` has no numeric value"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let run = ChildRun {
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a boolean")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("`attempted` is not a number")?,
        failed: field("failed")?
            .as_f64()
            .ok_or("`failed` is not a number")?,
        metrics,
    };
    Ok((fingerprint, run))
}

/// Run one workload in a child process: its input fingerprint and result.
fn run_child(workload: &str, args: &Args, trace: bool) -> Result<(String, ChildRun), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("--workload")
        .arg(workload)
        .arg("--seed")
        .arg(args.seed().to_string())
        .arg("--trace")
        .arg(if trace { "1" } else { "0" });
    if let Some(seconds) = args.seconds {
        cmd.arg("--seconds").arg(seconds.to_string());
    }
    if let Some(rounds) = args.rounds {
        cmd.arg("--rounds").arg(rounds.to_string());
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if trace {
        cmd.arg("--trace-out")
            .arg(format!("cdss_bench.{workload}.trace.json"));
    }
    // `output` waits for the child and collects its pipes.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (fingerprint, run) =
        parse_child_output(&stdout).map_err(|e| format!("{workload}: {e}\n{stdout}"))?;
    if !output.status.success() || !run.correct {
        return Err(format!(
            "{workload} failed ({}), {} of {} operations:\n{stdout}",
            output.status, run.failed, run.attempted
        ));
    }
    Ok((fingerprint, run))
}

/// Results of one workload over `--repeat` runs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub fingerprint: String,
    pub untraced: Vec<ChildRun>,
    pub traced: Vec<ChildRun>,
}

impl WorkloadResult {
    fn values(runs: &[ChildRun], metric: &str) -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
            .collect()
    }

    pub fn end_to_end(&self, metric: &str) -> Vec<f64> {
        Self::values(&self.untraced, metric)
    }

    pub fn per_layer(&self, metric: &str) -> Vec<f64> {
        Self::values(&self.traced, metric)
    }
}

/// A whole result file.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteResult {
    pub seed: u64,
    /// `rounds` (fixed length, exact counts) or `seconds=S`.
    pub mode: String,
    pub workloads: Vec<WorkloadResult>,
}

fn mode_label(args: &Args) -> String {
    match (args.seconds, args.rounds, args.smoke) {
        (Some(s), _, _) => format!("seconds={s}"),
        (None, Some(r), _) => format!("rounds={r}"),
        (None, None, true) => "smoke".to_string(),
        (None, None, false) => "rounds".to_string(),
    }
}

fn runs_json(runs: &[ChildRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|r| {
                Json::obj(vec![
                    ("correct", Json::Bool(r.correct)),
                    ("attempted", Json::Num(r.attempted)),
                    ("failed", Json::Num(r.failed)),
                    (
                        "metrics",
                        Json::Obj(
                            r.metrics
                                .iter()
                                .map(|(n, v)| (n.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn runs_from_json(runs: &Json) -> Result<Vec<ChildRun>, String> {
    runs.as_arr()
        .ok_or("`runs` is not a list")?
        .iter()
        .map(|r| {
            Ok(ChildRun {
                correct: r
                    .get("correct")
                    .and_then(Json::as_bool)
                    .ok_or("run without `correct`")?,
                attempted: r
                    .get("attempted")
                    .and_then(Json::as_f64)
                    .ok_or("run without `attempted`")?,
                failed: r
                    .get("failed")
                    .and_then(Json::as_f64)
                    .ok_or("run without `failed`")?,
                metrics: r
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("run without `metrics`")?
                    .iter()
                    .map(|(n, v)| {
                        v.as_f64()
                            .map(|v| (n.clone(), v))
                            .ok_or(format!("metric `{n}` is not a number"))
                    })
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

impl SuiteResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("benchmark", Json::Str("cdss_bench".into())),
            ("seed", Json::Num(self.seed as f64)),
            ("mode", Json::Str(self.mode.clone())),
            (
                "workloads",
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("name", Json::Str(w.name.clone())),
                                ("fingerprint", Json::Str(w.fingerprint.clone())),
                                ("untraced", runs_json(&w.untraced)),
                                ("traced", runs_json(&w.traced)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("result file has no `workloads` list")?
            .iter()
            .map(|w| {
                let name = w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("workload without a name")?;
                let fingerprint = w
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .ok_or("workload without a fingerprint")?;
                Ok(WorkloadResult {
                    name: name.to_string(),
                    fingerprint: fingerprint.to_string(),
                    untraced: runs_from_json(w.get("untraced").ok_or("no `untraced` runs")?)?,
                    traced: runs_from_json(w.get("traced").ok_or("no `traced` runs")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SuiteResult {
            seed: doc
                .get("seed")
                .and_then(Json::as_f64)
                .ok_or("result file has no `seed`")? as u64,
            mode: doc
                .get("mode")
                .and_then(Json::as_str)
                .ok_or("result file has no `mode`")?
                .to_string(),
            workloads,
        })
    }
}

fn print_metrics(title: &str, names: impl Iterator<Item = &'static str>, runs: &[ChildRun]) {
    println!("  {title}");
    for name in names {
        let values = WorkloadResult::values(runs, name);
        let spread =
            spread(&values).map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
        println!(
            "    {name:<46} {:>16.4} {:<6} (median of {}){spread}",
            median(&values),
            unit_of(name),
            values.len()
        );
    }
}

/// Run every workload `--repeat` times, untraced and (with `--traced`)
/// traced, each run in a child process of its own.
pub fn collect(args: &Args) -> Result<SuiteResult, String> {
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        println!("== {} — {}", workload.name, workload.why);
        let mut result = WorkloadResult {
            name: workload.name.to_string(),
            fingerprint: String::new(),
            untraced: Vec::new(),
            traced: Vec::new(),
        };
        for _ in 0..args.repeat {
            // End-to-end numbers come only from the untraced run.
            let (fingerprint, run) = run_child(workload.name, args, false)?;
            result.untraced.push(run);
            let mut fingerprints = vec![fingerprint];
            if args.trace {
                let (fingerprint, run) = run_child(workload.name, args, true)?;
                result.traced.push(run);
                fingerprints.push(fingerprint);
            }
            // A fixed-length run repeats the very same operation sequence
            // every time, traced or not; a timed one stops where it stops.
            for fingerprint in fingerprints {
                if result.fingerprint.is_empty() || args.seconds.is_some() {
                    result.fingerprint = fingerprint;
                } else if result.fingerprint != fingerprint {
                    return Err(format!(
                        "{}: two runs of one seed had different inputs ({} then {fingerprint})",
                        workload.name, result.fingerprint
                    ));
                }
            }
        }
        let last = result.untraced.last().expect("at least one run");
        println!(
            "  input fingerprint {}   operations {} attempted, {} failed (failed_ops_ratio {})",
            result.fingerprint,
            last.attempted,
            last.failed,
            last.failed / last.attempted
        );
        print_metrics(
            "end to end (untraced)",
            END_TO_END.iter().map(|m| m.name),
            &result.untraced,
        );
        if args.trace {
            print_metrics(
                "per layer (traced)",
                PER_LAYER.iter().map(|m| m.name),
                &result.traced,
            );
            println!("  chrome trace: cdss_bench.{}.trace.json", workload.name);
        }
        workloads.push(result);
    }
    Ok(SuiteResult {
        seed: args.seed(),
        mode: mode_label(args),
        workloads,
    })
}

pub fn run_suite(args: &Args) -> ExitCode {
    println!(
        "cdss_bench: {} workloads, seed {}, {} core(s); disk latencies are this sandbox's page cache, not a device's",
        WORKLOADS.len(),
        args.seed(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let result = match collect(args) {
        Ok(result) => result,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, result.to_json().render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("results written to {}", path.display());
    }
    ExitCode::SUCCESS
}

/// How one end-to-end metric compares between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Run-to-run spread on either side is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a`: by how much of `a`'s median did it get worse?
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let ratio = if ma != 0.0 { mb / ma } else { f64::NAN };
    let worsening = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let noisy = [a, b]
        .iter()
        .any(|side| spread(side).is_some_and(|s| s > bound));
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worsening > bound || ratio.is_nan() {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ratio, verdict)
}

/// One row per workload and end-to-end metric. Returns the number of
/// `worse` rows, or an error when the two results are not comparable.
pub fn compare(a: &SuiteResult, b: &SuiteResult) -> Result<usize, String> {
    if a.mode != b.mode {
        return Err(format!(
            "run lengths differ: `{}` against `{}`",
            a.mode, b.mode
        ));
    }
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound"
    );
    let mut worse = 0;
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or(format!("workload `{}` is missing from B", wa.name))?;
        if wa.fingerprint != wb.fingerprint {
            return Err(format!(
                "{}: input fingerprints differ ({} against {}): the two results did not run the same inputs",
                wa.name, wa.fingerprint, wb.fingerprint
            ));
        }
        for m in END_TO_END {
            let (va, vb) = (wa.end_to_end(m.name), wb.end_to_end(m.name));
            let (ratio, verdict) = judge(&va, &vb, m.better, m.bound);
            if verdict == Verdict::Worse {
                worse += 1;
            }
            println!(
                "{:<16} {:<20} {:>14.4} {:>14.4} {:>9.4} {:>5.0}%  {} ({} is better; base A = {:.4} {})",
                wa.name,
                m.name,
                median(&va),
                median(&vb),
                ratio,
                m.bound * 100.0,
                verdict.label(),
                m.better.label(),
                median(&va),
                m.unit
            );
        }
    }
    Ok(worse)
}

fn load(path: &Path) -> Result<SuiteResult, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    SuiteResult::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn compare_files(a: &Path, b: &Path) -> ExitCode {
    match load(a).and_then(|ra| load(b).and_then(|rb| compare(&ra, &rb))) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(worse) => {
            eprintln!("{worse} metric(s) of B are worse than A by more than their bound");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// Exact-count metrics that differ between two traced results.
pub fn exact_mismatches(a: &SuiteResult, b: &SuiteResult) -> Vec<String> {
    let mut out = Vec::new();
    for (wa, wb) in a.workloads.iter().zip(&b.workloads) {
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let (va, vb) = (wa.per_layer(m.name), wb.per_layer(m.name));
            if va != vb {
                out.push(format!("{} {}: {va:?} against {vb:?}", wa.name, m.name));
            }
        }
    }
    out
}

/// Run the suite twice on this binary, fixed length, traced too: every
/// end-to-end metric must agree within its bound in both directions, and
/// every exact-count metric must be identical.
pub fn selfcheck(args: &Args) -> ExitCode {
    let args = Args {
        trace: true,
        seconds: None,
        out: None,
        ..args.clone()
    };
    let mut results = Vec::new();
    for pass in ["first", "second"] {
        println!("=== selfcheck: {pass} pass");
        match collect(&args) {
            Ok(result) => results.push(result),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (a, b) = (&results[0], &results[1]);
    println!("=== selfcheck: second pass against first");
    let forward = compare(a, b);
    println!("=== selfcheck: first pass against second");
    let backward = compare(b, a);
    let mismatches = exact_mismatches(a, b);
    for m in &mismatches {
        eprintln!("exact count differs: {m}");
    }
    match (forward, backward) {
        (Ok(0), Ok(0)) if mismatches.is_empty() => {
            println!(
                "selfcheck passed: two passes agree within every bound, exact counts identical"
            );
            ExitCode::SUCCESS
        }
        (Err(message), _) | (_, Err(message)) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
        _ => {
            eprintln!("selfcheck failed");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(values: &[(&str, f64)]) -> ChildRun {
        ChildRun {
            correct: true,
            attempted: 120.0,
            failed: 0.0,
            metrics: values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    fn result(exchange_ms: &[f64], tuples: f64) -> SuiteResult {
        SuiteResult {
            seed: 11,
            mode: "rounds".into(),
            workloads: vec![WorkloadResult {
                name: "insert_stream".into(),
                fingerprint: "0x0000beef".into(),
                untraced: exchange_ms
                    .iter()
                    .map(|&ms| {
                        run(&[
                            ("exchange_p50_ms", ms),
                            ("exchange_ops_per_s", 1000.0 / ms),
                            ("read_p50_us", 40.0),
                            ("peak_rss_mb", 100.0),
                            ("setup_s", 0.25),
                        ])
                    })
                    .collect(),
                traced: vec![run(&[("storage.total_tuples", tuples)])],
            }],
        }
    }

    #[test]
    fn result_files_round_trip() {
        let r = result(&[1.5, 1.6, 1.4], 72000.0);
        let text = r.to_json().render();
        assert_eq!(
            SuiteResult::from_json(&Json::parse(&text).unwrap()).unwrap(),
            r
        );
    }

    #[test]
    fn the_child_protocol_parses() {
        let stdout = "workload x seed 11\nfingerprint 0x0000beef\n  setup_s 0.25 s\n\
{\"correct\":true,\"attempted\":120,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}\n";
        assert_eq!(
            parse_child_output(stdout).unwrap(),
            ("0x0000beef".to_string(), run(&[("setup_s", 0.25)]))
        );
        assert!(parse_child_output("fingerprint 0x1\nnot json\n").is_err());
        assert!(parse_child_output("{\"correct\":true}\n").is_err());
    }

    #[test]
    fn judging_respects_direction_bound_and_spread() {
        // Latency up 20% against a 10% bound: worse. Down 20%: fine.
        assert_eq!(judge(&[1.0], &[1.2], Better::Lower, 0.10).1, Verdict::Worse);
        assert_eq!(judge(&[1.0], &[0.8], Better::Lower, 0.10).1, Verdict::Ok);
        // Throughput down 20%: worse. Up: fine.
        assert_eq!(
            judge(&[100.0], &[80.0], Better::Higher, 0.10).1,
            Verdict::Worse
        );
        assert_eq!(
            judge(&[100.0], &[125.0], Better::Higher, 0.10).1,
            Verdict::Ok
        );
        // Within the bound.
        assert_eq!(judge(&[1.0], &[1.05], Better::Lower, 0.10).1, Verdict::Ok);
        // A side whose own runs spread wider than the bound decides nothing.
        let noisy = [1.0, 1.3, 0.7, 1.0];
        assert_eq!(
            judge(&noisy, &[1.5], Better::Lower, 0.10).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_refuses_other_inputs_and_counts_regressions() {
        let a = result(&[1.5], 72000.0);
        let mut other_inputs = a.clone();
        other_inputs.workloads[0].fingerprint = "0x0000f00d".into();
        assert!(compare(&a, &other_inputs)
            .unwrap_err()
            .contains("fingerprints differ"));
        let mut other_length = a.clone();
        other_length.mode = "seconds=10".into();
        assert!(compare(&a, &other_length).is_err());

        assert_eq!(compare(&a, &a), Ok(0));
        // 3.0 ms against 1.5 ms: the median and the throughput both regress.
        assert_eq!(compare(&a, &result(&[3.0], 72000.0)), Ok(2));
        assert!(exact_mismatches(&a, &a).is_empty());
        assert_eq!(exact_mismatches(&a, &result(&[1.5], 72001.0)).len(), 1);
    }
}
