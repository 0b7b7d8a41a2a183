//! RTL equivalence smoke harness: allocate → lower → simulate vs reference
//! over a small random TGFF batch spanning every scenario family, through
//! the batch driver's opt-in oracle.
//!
//! Writes `results/RTL_smoke.json` and exits non-zero if any job fails to
//! allocate or any netlist diverges from the reference evaluation — the CI
//! gate for the backend's bit-true guarantee.
//!
//! Run with: `cargo run -p mwl_bench --release --bin rtl_smoke`
//! (`--graphs N` controls the graphs per family, default 4).

use std::process::ExitCode;

use mwl_core::BindingCertificate;
use mwl_driver::{area_breakdown_json, run_batch, BatchJob, BatchOptions, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_obs::json::ObjectBuilder;
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

fn main() -> ExitCode {
    let mut graphs_per_family = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--graphs" => {
                graphs_per_family = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--graphs needs a positive integer");
            }
            other => {
                eprintln!("unknown argument: {other} (supported: --graphs N)");
                return ExitCode::FAILURE;
            }
        }
    }

    let families: &[(&str, GraphShape, WidthProfile, u32)] = &[
        ("layered", GraphShape::Layered, WidthProfile::Uniform, 2),
        ("wide", GraphShape::Wide, WidthProfile::Uniform, 3),
        ("deep", GraphShape::Deep, WidthProfile::Uniform, 4),
        ("diamond", GraphShape::Diamond, WidthProfile::Uniform, 2),
        (
            "mixed-widths",
            GraphShape::Layered,
            WidthProfile::Mixed { high_fraction: 0.4 },
            3,
        ),
    ];

    let mut jobs = Vec::new();
    for (i, &(name, shape, profile, slack)) in families.iter().enumerate() {
        let config = TgffConfig::with_ops(10).shape(shape).width_profile(profile);
        let mut generator = TgffGenerator::new(config, 4242 + i as u64);
        for g in 0..graphs_per_family {
            jobs.push(
                BatchJob::new(
                    format!("{name}/{g}"),
                    generator.generate(),
                    LatencySpec::RelaxSteps(slack),
                )
                .with_rtl_check(true),
            );
        }
    }

    let cost = SonicCostModel::default();
    let report = run_batch(&jobs, &cost, &BatchOptions::default().with_rtl_vectors(8));
    let summary = report.summary();
    println!("{report}");

    // Every solved job must carry the binder's optimality certificate, both
    // model-side (JobStats) and through the lowered netlist (RtlCheck).
    let all_optimal = report.outcomes.iter().all(|o| match &o.result {
        Ok(stats) => {
            stats.certificate == BindingCertificate::Optimal
                && stats
                    .rtl
                    .as_ref()
                    .is_none_or(|r| r.certificate == Some(BindingCertificate::Optimal))
        }
        Err(_) => true,
    });
    let certificate = if all_optimal {
        BindingCertificate::Optimal
    } else {
        BindingCertificate::Heuristic
    };

    let json = ObjectBuilder::new()
        .field("jobs", summary.jobs)
        .field("failed", summary.failed)
        .field("rtl_checked", summary.rtl_checked)
        .field("rtl_passed", summary.rtl_passed)
        .field(
            "area_breakdown",
            area_breakdown_json(&summary.area_breakdown),
        )
        .field("certificate", certificate.as_str())
        .field("report", report.to_json())
        .build()
        .encode_pretty();
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/RTL_smoke.json", json).expect("write RTL_smoke.json");
    println!("wrote results/RTL_smoke.json");

    if summary.failed != 0 {
        eprintln!("FAIL: {} jobs failed to allocate", summary.failed);
        return ExitCode::FAILURE;
    }
    if summary.rtl_checked != summary.jobs || summary.rtl_passed != summary.rtl_checked {
        eprintln!(
            "FAIL: rtl checks {} / passed {} of {} jobs",
            summary.rtl_checked, summary.rtl_passed, summary.jobs
        );
        for o in &report.outcomes {
            if let Ok(stats) = &o.result {
                if let Some(rtl) = &stats.rtl {
                    if !rtl.passed {
                        eprintln!(
                            "  {}: {}",
                            o.label,
                            rtl.failure.as_deref().unwrap_or("unknown divergence")
                        );
                    }
                }
            }
        }
        return ExitCode::FAILURE;
    }
    if !all_optimal {
        eprintln!("FAIL: a register binding missed its optimality certificate");
        return ExitCode::FAILURE;
    }
    println!(
        "OK: {} jobs, all netlists bit-identical to the reference evaluation, \
         all register bindings certified optimal",
        summary.jobs
    );
    ExitCode::SUCCESS
}
