//! `mwlbench`: runs one workload and prints its metrics, ending with one
//! JSON line.  Exits 1 when an output check failed and 2 on a usage or
//! set-up error (then without a result line).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match mwlbench::parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mwlbench: {e}\n{}", mwlbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match mwlbench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("mwlbench: {e}");
            return ExitCode::from(2);
        }
    };
    let title = format!(
        "{} seed {} ({} run, {} s)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        args.seconds
    );
    print!("{}", outcome.render_text(&title));
    println!("{}", outcome.to_json_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
