//! End-to-end and per-layer benchmark of the mwl allocation stack.
//!
//! One command runs one named workload for a fixed number of seconds and
//! prints every metric by name and unit, ending with a single JSON line.
//! Layers are measured from outside: this crate times calls into the public
//! functions of `mwl_wcg`, `mwl_sched`, `mwl_core`, `mwl_driver`,
//! `mwl_serve` and `mwl_rtl` and reads the counters those crates expose.
//! See `README.md` beside this crate for the metric map and how to read the
//! trace.

#![forbid(unsafe_code)]

pub mod batch;
pub mod check;
pub mod layers;
pub mod mix;
pub mod report;
pub mod serve;
pub mod stats;
pub mod workload;

use report::Outcome;
use workload::{large_pool, paper_pool, Scale, Workload};

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Run the traced per-layer breakdown instead of the end-to-end run.
    pub trace: bool,
    /// Shrink every input (the benchmark's own tests).
    pub tiny: bool,
    /// Where the traced run writes its Chrome trace.
    pub trace_out: Option<String>,
}

/// The command-line synopsis.
pub const USAGE: &str = "usage: mwlbench --workload paper_mix|large_graphs \
    [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH] [--tiny]";

/// Parses `--workload`, `--seed`, `--seconds`, `--trace`, `--trace-out`
/// and `--tiny`.
///
/// # Errors
///
/// A message naming the bad or missing argument.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::PaperMix,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        trace_out: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => parsed.trace_out = Some(value()?),
            "--tiny" => parsed.tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(parsed)
}

/// Runs one workload and returns its outcome, with the machine's
/// parallelism as context.
///
/// # Errors
///
/// Set-up or transport failures (never a wrong output: those are counted in
/// the outcome).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let parallelism = stats::probe_parallelism();
    let scale = Scale { tiny: args.tiny };
    let mut outcome = if args.trace {
        layers::run(args, scale)?
    } else {
        match args.workload {
            Workload::PaperMix => batch::run(
                &paper_pool(args.seed, scale.paper_batches()),
                args.seconds,
                args.seed,
                batch::ReferenceCheck::All,
            ),
            Workload::LargeGraphs => batch::run(
                &large_pool(args.seed, scale.large_graphs()),
                args.seconds,
                args.seed,
                batch::ReferenceCheck::Sample(12),
            ),
        }
    };
    outcome.notes.insert(
        0,
        format!(
            "nproc {} | effective parallelism {:.2} (two-thread CPU burn over one)",
            parallelism.nproc, parallelism.effective
        ),
    );
    Ok(outcome)
}
