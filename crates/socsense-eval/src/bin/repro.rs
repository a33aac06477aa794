//! `repro` — regenerate any table or figure from the paper.
//!
//! ```text
//! repro <experiment> [--budget fast|paper] [--reps N] [--scale F]
//!       [--seed N] [--json PATH]
//!
//! experiments: table1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table3 fig11
//!              ablations mismatch streaming discover all
//! ```
//!
//! `--budget fast` (default) is sized for one laptop core and preserves
//! every qualitative shape; `--budget paper` uses the paper's repetition
//! counts (20 / 300) and full-scale Twitter scenarios. `--reps` and
//! `--scale` override individual knobs.

// Each experiment is timed; no clock reading feeds an estimate.
#![allow(clippy::disallowed_methods)]

use std::process::ExitCode;
use std::time::Instant;

use socsense_eval::experiments::{
    ablations, bound_figures, discover, estimator_figures, fig11, fig6, mismatch, streaming,
    table1, table3, Budget,
};
use socsense_eval::FigureResult;

struct Args {
    experiment: String,
    budget: Budget,
    reps_override: Option<usize>,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut experiment: Option<String> = None;
    let mut budget = Budget::fast();
    let mut reps_override = None;
    let mut json = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--budget" => {
                budget = match value("--budget")?.as_str() {
                    "fast" => Budget::fast(),
                    "paper" => Budget::paper(),
                    other => return Err(format!("unknown budget {other}")),
                }
            }
            "--reps" => {
                reps_override = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|e| format!("bad --reps: {e}"))?,
                )
            }
            "--scale" => {
                budget.twitter_scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?
            }
            "--seed" => {
                budget.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--json" => json = Some(value("--json")?),
            "--help" | "-h" => return Err(USAGE.into()),
            other if !other.starts_with('-') && experiment.is_none() => {
                experiment = Some(other.to_owned())
            }
            other => return Err(format!("unexpected argument {other}; try --help")),
        }
    }
    if let Some(r) = reps_override {
        budget.bound_reps = r;
        budget.estimator_reps = r;
    }
    Ok(Args {
        experiment: experiment.ok_or_else(|| USAGE.to_string())?,
        budget,
        reps_override,
        json,
    })
}

const USAGE: &str = "usage: repro <table1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|table3|fig11|ablations|mismatch|streaming|discover|all> \
     [--budget fast|paper] [--reps N] [--scale F] [--seed N] [--json PATH]";

/// Collected JSON-able outputs for --json.
#[derive(Default)]
struct JsonSink(Vec<serde_json::Value>);

impl JsonSink {
    fn push_figure(&mut self, fig: &FigureResult) {
        self.0
            .push(serde_json::to_value(fig).expect("figure serialises"));
    }
}

fn run_one(
    name: &str,
    budget: &Budget,
    reps: Option<usize>,
    sink: &mut JsonSink,
) -> Result<(), String> {
    let t0 = Instant::now();
    match name {
        "table1" => {
            let t = table1::run();
            print!("{t}");
            self_check_table1(&t)?;
            sink.0
                .push(serde_json::to_value(&t).expect("table1 serialises"));
        }
        "fig3" => print_fig(&bound_figures::fig3(budget), sink),
        "fig4" => print_fig(&bound_figures::fig4(budget), sink),
        "fig5" => print_fig(&bound_figures::fig5(budget), sink),
        "fig6" => print_fig(&fig6::fig6(budget), sink),
        "fig7" => print_estimator(&estimator_figures::fig7(budget), sink),
        "fig8" => print_estimator(&estimator_figures::fig8(budget), sink),
        "fig9" => print_estimator(&estimator_figures::fig9(budget), sink),
        "fig10" => print_estimator(&estimator_figures::fig10(budget), sink),
        "table3" => {
            let t = table3::run(budget);
            print!("{t}");
            sink.0
                .push(serde_json::to_value(&t).expect("table3 serialises"));
        }
        "fig11" => print_fig(&fig11::fig11(budget, reps.unwrap_or(3)), sink),
        "ablations" => {
            for fig in ablations::run_all(budget) {
                print_fig(&fig, sink);
            }
        }
        "mismatch" => print_fig(&mismatch::mismatch(budget), sink),
        "streaming" => print_fig(&streaming::streaming(budget), sink),
        "discover" => {
            let t = discover::run(budget);
            print!("{t}");
            sink.0
                .push(serde_json::to_value(&t).expect("discover serialises"));
        }
        other => return Err(format!("unknown experiment {other}\n{USAGE}")),
    }
    eprintln!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
    Ok(())
}

fn print_fig(fig: &FigureResult, sink: &mut JsonSink) {
    print!("{fig}");
    sink.push_figure(fig);
}

fn print_estimator(fig: &estimator_figures::EstimatorFigure, sink: &mut JsonSink) {
    print!("{}", fig.accuracy);
    print!("{}", fig.rates);
    sink.push_figure(&fig.accuracy);
    sink.push_figure(&fig.rates);
}

fn self_check_table1(t: &table1::Table1) -> Result<(), String> {
    if (t.bound.error - t.paper_err).abs() > 1e-8 {
        return Err(format!(
            "table1 self-check failed: {:.8} vs paper {:.8}",
            t.bound.error, t.paper_err
        ));
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut sink = JsonSink::default();
    let all = [
        "table1",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "table3",
        "fig11",
        "ablations",
        "mismatch",
        "streaming",
        "discover",
    ];
    if args.experiment == "all" {
        for name in all {
            run_one(name, &args.budget, args.reps_override, &mut sink)?;
            println!();
        }
    } else {
        run_one(
            &args.experiment,
            &args.budget,
            args.reps_override,
            &mut sink,
        )?;
    }
    if let Some(path) = args.json {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&sink.0).map_err(|e| e.to_string())?,
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
