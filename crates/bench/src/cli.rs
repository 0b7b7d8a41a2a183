//! The command-line plumbing every `mwl_bench` and `mwl_serve` binary
//! shares: one argument parser and one way to write an output file.
//!
//! A binary names the flags it accepts (`--smoke`, `--paper`, …) and the
//! options that take a value (`--graphs N`, `--reps N`, `--out PATH`, …).
//! An unknown argument, an option without its value, or a count that is
//! not a positive integer ends the process with exit code 2 and the
//! binary's usage line.

use std::path::Path;

use mwl_obs::json::Json;

/// The parsed command line of one binary.
#[derive(Debug, Clone)]
pub struct Args {
    args: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// Reads the process arguments.  `usage` is the binary's usage line;
    /// `flags` and `options` list every argument it accepts, bare and
    /// valued respectively.
    #[must_use]
    pub fn from_env(usage: &'static str, flags: &[&str], options: &[&str]) -> Self {
        let args = Args {
            args: std::env::args().skip(1).collect(),
            usage,
        };
        let mut rest = args.args.iter();
        while let Some(arg) = rest.next() {
            if options.contains(&arg.as_str()) {
                if rest.next().is_none() {
                    args.usage_error(&format!("{arg} expects a value"));
                }
            } else if !flags.contains(&arg.as_str()) {
                args.usage_error(&format!("unknown argument {arg}"));
            }
        }
        args
    }

    /// Whether the flag was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following the option, if it was given.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        let at = self.args.iter().position(|a| a == name)?;
        self.args.get(at + 1).map(String::as_str)
    }

    /// The option's value as a positive integer, if it was given.
    #[must_use]
    pub fn count(&self, name: &str) -> Option<usize> {
        let value = self.value(name)?;
        Some(
            positive(value)
                .unwrap_or_else(|| self.usage_error(&format!("{name} expects a positive integer"))),
        )
    }

    /// Prints `message` and the usage line, then exits with code 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("ERROR: {message}");
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }
}

/// Writes `doc` to `path`, creating its directory, and reports the write on
/// stderr; then runs `check` on the written text parsed back: the gate's
/// verdict is that check of its own artifact.  A failed write or any
/// violation (each is printed) ends the process with exit code 1.
pub fn write_checked(path: &str, doc: &Json, check: impl FnOnce(&Json) -> Vec<String>) {
    let written = doc.encode_pretty();
    let dir = Path::new(path).parent().unwrap_or(Path::new(""));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, &written)) {
        eprintln!("ERROR: could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
    let violations = check(&Json::parse(&written).expect("the codec parses what it printed"));
    for violation in &violations {
        eprintln!("ERROR: {path}: {violation}");
    }
    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// `value` as a positive integer.
fn positive(value: &str) -> Option<usize> {
    value.parse().ok().filter(|&n| n > 0)
}

#[cfg(test)]
mod tests {
    use super::positive;

    #[test]
    fn counts_are_positive_integers() {
        assert_eq!(positive("3"), Some(3));
        for bad in ["0", "-1", "x", "", "2.5", " 4"] {
            assert_eq!(positive(bad), None, "{bad:?}");
        }
    }
}
