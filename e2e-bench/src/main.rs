//! End-to-end benchmark over the Table III crawls.
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path e2e-bench/Cargo.toml -- \
//!     --workload <crawl-batch|firehose> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --quiet --release --offline --manifest-path e2e-bench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. Each run generates its workload's
//! inputs from `--seed`, drives them through the layers' public APIs,
//! checks the outputs against a reference taken in the same run, and
//! prints one JSON object as the last line of stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1` (from
//! a second, traced pass over the same inputs). A human-readable report
//! goes to stderr. `--smoke` runs every workload of `BENCHMARK.json` at a
//! tiny scale, traced and untraced, and asserts that every metric is
//! emitted with its unit, that every output check ran, and that every
//! per-layer metric is measured by some workload. `WORKLOADS.md`
//! describes the workloads, the metrics, and where the configuration
//! departs from the defaults.

// detlint: contract = tooling
#![forbid(unsafe_code)]

mod crawl_batch;
mod inputs;
mod measure;
mod query_mix;
mod replay;
mod serving;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};

use measure::{median, peak_rss_mb, reset_peak_rss, secs, Layers};

/// The benchmark's definition: its workloads and the name and unit of
/// every metric it reports.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every entry in `SPEC`'s list `key`, in order: the
/// metrics of `end_to_end` and `per_layer`, or the `workloads` (whose
/// unit is empty).
fn catalogue(key: &str) -> Vec<(String, String)> {
    let spec: Value = serde_json::from_str(SPEC).expect("BENCHMARK.json is JSON");
    let text = |m: &Value, k: &str| {
        field(m, k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    field(&spec, key)
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists workloads and metrics")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

/// Set-ups per run: `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Full Table III scale, or the tiny scale of `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one measured pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed (false until one has run).
    pub correct: bool,
    /// Output checks run.
    pub checks: usize,
    /// Requests (or passes) generated.
    pub attempted: u64,
    /// Of those, the ones that returned an error.
    pub failed: u64,
    /// Set-up inside the pass: service spawn (median).
    pub setup_s: f64,
    /// Median latency of the workload's operation.
    pub p50_s: f64,
    /// Work items completed per second of the measured phase.
    pub throughput_per_s: f64,
    /// Restart over the durable state → first answered query (median).
    pub recovery_s: f64,
    /// Per-layer metrics (traced passes only).
    pub layers: Layers,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a further traced phase: its operations, checks and notes, and
    /// its layers. Times and counts add up; each ratio comes from the one
    /// phase that reports it.
    fn absorb(&mut self, phase: Outcome) {
        self.correct &= phase.correct;
        self.checks += phase.checks;
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.notes.extend(phase.notes);
        for (name, value) in phase.layers {
            *self.layers.entry(name).or_insert(0.0) += value;
        }
    }
}

/// A workload's generated inputs, ready to be measured.
#[derive(PartialEq)]
enum Input {
    CrawlBatch(crawl_batch::Size, crawl_batch::Input),
    Firehose(replay::Size, replay::Input),
}

impl Input {
    fn generate(workload: &str, scale: Scale, seed: u64, seconds: u64) -> Option<Self> {
        Some(match workload {
            "crawl-batch" => {
                let size = crawl_batch::Size::new(scale, seconds);
                let input = crawl_batch::setup(&size, seed);
                Input::CrawlBatch(size, input)
            }
            "firehose" => {
                let size = replay::Size::firehose(scale, seconds);
                let input = replay::setup(&size, seed);
                Input::Firehose(size, input)
            }
            _ => return None,
        })
    }

    fn measure(&self, traced: bool, scale: Scale, seed: u64) -> Outcome {
        match self {
            Input::CrawlBatch(size, input) => crawl_batch::measure(size, input, traced),
            Input::Firehose(size, input) => {
                let mut out = replay::measure(size, input, traced);
                if traced {
                    // The serving layers the single-worker replay does not
                    // reach, as two more phases over their own inputs: the
                    // router, shards and history segments, then delta
                    // refits, bounds and the read paths.
                    let size = replay::Size::sharded(scale);
                    out.absorb(replay::measure(&size, &replay::setup(&size, seed), true));
                    let size = query_mix::Size::new(scale);
                    out.absorb(query_mix::measure(&size, &query_mix::setup(&size, seed)));
                }
                out
            }
        }
    }
}

/// One workload run: the JSON result line plus its report.
struct Report {
    result: Value,
    notes: Vec<String>,
    checks: usize,
    /// Per-layer metrics the traced run measured (the others read 0).
    layers: Vec<&'static str>,
}

/// `value[key]` for an object `value`.
fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

fn run(workload: &str, seed: u64, seconds: u64, trace: bool, scale: Scale) -> Option<Report> {
    // Generate the inputs several times over: `setup_s` takes the median,
    // and every repetition must produce the same inputs. Half of the
    // set-ups come after the measured pass, so that they sample the whole
    // run rather than its first second.
    let mut generate_s = Vec::with_capacity(SETUP_REPS);
    let mut generate = || {
        let t = Instant::now();
        let input = Input::generate(workload, scale, seed, seconds);
        generate_s.push(secs(t));
        input
    };
    let input = generate()?;
    let mut deterministic = true;
    for _ in 1..SETUP_REPS / 2 {
        deterministic &= generate().as_ref() == Some(&input);
    }
    // `peak_rss_mb` covers the measured pass, not input generation.
    reset_peak_rss();
    let untraced = input.measure(false, scale, seed);
    let peak_rss = peak_rss_mb();
    for _ in SETUP_REPS / 2..SETUP_REPS {
        deterministic &= generate().as_ref() == Some(&input);
    }
    let generate_s = median(&generate_s);
    let mut notes =
        vec![format!(
        "{workload} seed {seed}: inputs generated in {generate_s:.3} s (median of {SETUP_REPS}){}",
        if deterministic { "" } else { "; REPEATED GENERATION DIFFERED" }
    )];
    notes.extend(untraced.notes.iter().cloned());
    let mut correct = untraced.correct && deterministic;
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut checks = untraced.checks;
    let mut metrics = Map::new();
    let mut measured = Vec::new();
    if trace {
        let traced = input.measure(true, scale, seed);
        notes.extend(traced.notes.iter().map(|n| format!("traced: {n}")));
        correct &= traced.correct;
        attempted += traced.attempted;
        failed += traced.failed;
        checks += traced.checks;
        let mut layers = traced.layers;
        let e2e = layers.get("ledger.e2e_s").copied().unwrap_or(0.0);
        let unattributed = layers.get("ledger.unattributed_s").copied().unwrap_or(0.0);
        if e2e > 0.0 {
            layers.insert("ledger.unattributed_share", unattributed / e2e);
        }
        layers.insert("obs.untraced_p50_s", untraced.p50_s);
        layers.insert("obs.traced_p50_s", traced.p50_s);
        if untraced.p50_s > 0.0 {
            layers.insert("obs.tracing_overhead_ratio", traced.p50_s / untraced.p50_s);
        }
        measured = layers.keys().copied().collect();
        for (name, unit) in catalogue("per_layer") {
            let value = layers.get(name.as_str()).copied().unwrap_or(0.0);
            metrics.insert(name, metric(value, &unit));
        }
        // A layer the catalogue does not list is a misnamed metric.
        layers.retain(|name, _| !metrics.contains_key(*name));
        if let Some(name) = layers.keys().next() {
            notes.push(format!("UNCATALOGUED LAYER METRIC {name}"));
            correct = false;
        }
    } else {
        let values = [
            ("setup_s", generate_s + untraced.setup_s),
            ("peak_rss_mb", peak_rss),
            ("p50_s", untraced.p50_s),
            ("throughput_per_s", untraced.throughput_per_s),
            ("recovery_s", untraced.recovery_s),
        ];
        for (name, unit) in catalogue("end_to_end") {
            // A metric the benchmark does not measure reads `null`.
            let value = values
                .iter()
                .find(|v| v.0 == name)
                .map_or(f64::NAN, |v| v.1);
            metrics.insert(name, metric(value, &unit));
        }
    }
    // A failed output check fails every operation of the run.
    if !correct {
        failed = attempted;
    }
    Some(Report {
        result: json!({
            "correct": correct,
            "attempted": attempted.max(1),
            "failed": failed,
            "metrics": metrics,
        }),
        notes,
        checks,
        layers: measured,
    })
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args.iter().any(|a| a == "--smoke") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads: Vec<String> = catalogue("workloads").into_iter().map(|w| w.0).collect();
    if !workloads.contains(&workload) {
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            workloads.join(", ")
        ));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Every workload, tiny, untraced and traced: each emits every metric
/// with its unit and passes its output checks, every end-to-end metric is
/// positive, and some workload measures every per-layer metric.
fn smoke() -> Result<(), String> {
    let mut measured = BTreeSet::new();
    for (workload, _) in catalogue("workloads") {
        for trace in [false, true] {
            let report = run(&workload, 1, 1, trace, Scale::Smoke)
                .ok_or(format!("no workload `{workload}`"))?;
            for note in &report.notes {
                eprintln!("smoke: {note}");
            }
            let r = &report.result;
            let listed = catalogue(if trace { "per_layer" } else { "end_to_end" });
            let metrics = field(r, "metrics")
                .and_then(Value::as_object)
                .ok_or("no metrics")?;
            if metrics.len() != listed.len() {
                return Err(format!("{workload}: {} metrics emitted", metrics.len()));
            }
            for (name, unit) in listed {
                let m = metrics.get(&name).ok_or(format!("{workload}: no {name}"))?;
                let value = field(m, "value")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{workload}: {name} has no value"))?;
                if field(m, "unit").and_then(Value::as_str) != Some(&unit) || !value.is_finite() {
                    return Err(format!("{workload}: {name} = {m:?}"));
                }
                if !trace && value <= 0.0 {
                    return Err(format!("{workload}: end-to-end {name} is {value}"));
                }
            }
            measured.extend(report.layers);
            let expected_checks = if trace { 2 } else { 1 };
            let correct = field(r, "correct") == Some(&Value::Bool(true));
            let failed = field(r, "failed").and_then(Value::as_f64);
            if !correct || failed != Some(0.0) || report.checks < expected_checks {
                return Err(format!(
                    "{workload}: correct={correct} failed={failed:?} checks={}",
                    report.checks
                ));
            }
            eprintln!("smoke: {workload} trace={} ok", u8::from(trace));
        }
    }
    let unmeasured: Vec<String> = catalogue("per_layer")
        .into_iter()
        .map(|(name, _)| name)
        .filter(|name| !measured.contains(name.as_str()))
        .collect();
    if !unmeasured.is_empty() {
        return Err(format!(
            "measured by no workload: {}",
            unmeasured.join(", ")
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match smoke() {
                Ok(()) => {
                    println!("smoke: every workload emitted every metric and passed its checks");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("smoke failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        Scale::Full,
    )
    .expect("workload validated by parse_args");
    for note in &report.notes {
        eprintln!("{note}");
    }
    println!(
        "{}",
        serde_json::to_string(&report.result).expect("the result serializes")
    );
    ExitCode::SUCCESS
}
