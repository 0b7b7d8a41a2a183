//! RTL equivalence smoke harness: allocate → lower → simulate vs reference
//! over a small random TGFF batch spanning every scenario family, through
//! the batch driver's opt-in oracle.
//!
//! Writes `results/RTL_smoke.json` and exits 1 if that file fails its
//! check: a job failed to allocate, a netlist diverged from the reference
//! evaluation, or a register binding missed its optimality certificate.
//!
//! Run with: `cargo run -p mwl_bench --release --bin rtl_smoke`
//! (`--graphs N` controls the graphs per family, default 4).

use mwl_bench::cli::{write_checked, Args};
use mwl_core::BindingCertificate;
use mwl_driver::{area_breakdown_json, run_batch, BatchJob, BatchOptions, LatencySpec};
use mwl_model::SonicCostModel;
use mwl_obs::json::{Check, Json, ObjectBuilder};
use mwl_tgff::{GraphShape, TgffConfig, TgffGenerator, WidthProfile};

fn main() {
    let graphs_per_family = Args::from_env("rtl_smoke [--graphs N]", &[], &["--graphs"])
        .count("--graphs")
        .unwrap_or(4);
    write_checked("results/RTL_smoke.json", &run(graphs_per_family), check);
}

/// Allocates, lowers and simulates `graphs_per_family` graphs of each
/// family, and returns the `RTL_smoke.json` document.
fn run(graphs_per_family: usize) -> Json {
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

    ObjectBuilder::new()
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
}

/// Every assertion `RTL_smoke.json` violates.
fn check(doc: &Json) -> Vec<String> {
    let mut c = Check::new(doc);
    c.is("failed", 0u64);
    c.same("rtl_checked", "jobs");
    c.same("rtl_passed", "jobs");
    c.keys("area_breakdown", &["fu", "register", "mux"]);
    c.positive("area_breakdown.fu");
    c.is("certificate", "optimal");
    c.same(
        "report.summary.area_breakdown.fu",
        "report.summary.total_area",
    );
    c.each("report.outcomes", |o| {
        let ok = o.value("ok").and_then(Json::as_bool);
        o.require(ok.is_some(), "ok", "not a bool");
        if ok == Some(true) {
            o.is("certificate", "optimal");
            o.keys("area_breakdown", &["fu", "register", "mux"]);
        }
    });
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_passes_its_check_and_names_a_planted_violation() {
        let text = run(1).encode_pretty();
        assert_eq!(check(&Json::parse(&text).unwrap()), Vec::<String>::new());
        let planted = text.replacen("\"failed\": 0", "\"failed\": 1", 1);
        let violations = check(&Json::parse(&planted).unwrap());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].starts_with("failed: "), "{violations:?}");
    }
}
