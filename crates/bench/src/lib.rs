//! # relc-bench — the evaluation harness (§6)
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Binary | Notes |
//! |---|---|---|
//! | Figure 1 (container taxonomy) | `figures taxonomy` | property table from `relc-containers` |
//! | Figure 5 (4 throughput/scalability graphs) | `figure5` | 13 series + speculative bonus; `--full` for paper-scale op counts |
//! | §6.1 autotuner | `autotune` | calibrates a candidate pool, then advises and migrates a live workload |
//! | Stripe-factor ablation (§4.4) | `figures striping` | k ∈ {1, 4, 64, 1024} |
//! | Lock-sort elision ablation (§5.2) | `figures sorting` | planner analysis on vs forced runtime sorts |
//! | Key-skew ablation (extension) | `figures zipf` | Zipf-skewed keys across placements |
//! | §4.3/§5.1 lock-discipline report | `relc-analyze` | static analyzer over every standard decomposition × placement; exits non-zero on a diagnostic |
//!
//! The repository's performance benchmark is the separate `benchmark/`
//! workspace, not this crate.
//!
//! The library half hosts the [`handcoded`] baseline, the Figure 5
//! [`figures`] configuration table, and plain-text [`report`] formatting.

#![warn(missing_docs)]

pub mod figures;
pub mod handcoded;
pub mod report;

/// A bench bin's command line, checked against the flags the bin
/// declares: *switches*, present or not (`--full`), and *options*, each
/// followed by one value (`--ops 2000`). A word that is neither, an option
/// without its value, a flag given twice, or a value that does not parse
/// is an error, reported with the bin's usage line, so a misspelled flag
/// never silently runs the defaults.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    options: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// The process's arguments, parsed as [`Args::parse`] does; on an
    /// error, prints it and `usage` to stderr and exits with status 2.
    pub fn from_env(usage: &'static str, switches: &[&str], options: &[&str]) -> Args {
        Args::from_words(usage, switches, options, std::env::args().skip(1))
    }

    /// `argv` parsed as [`Args::parse`] does; on an error, prints it and
    /// `usage` to stderr and exits with status 2.
    pub fn from_words(
        usage: &'static str,
        switches: &[&str],
        options: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Args {
        Args::parse(usage, switches, options, argv).unwrap_or_else(|e| fail(usage, &e))
    }

    /// Parses `argv`: every word must be one of the declared `switches`,
    /// or one of the declared `options` followed by its value.
    ///
    /// # Errors
    ///
    /// The first word that is not declared, an option missing its value,
    /// or a flag given twice.
    pub fn parse(
        usage: &'static str,
        switches: &[&str],
        options: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args {
            usage,
            options: Vec::new(),
            switches: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(word) = argv.next() {
            let given =
                args.switches.contains(&word) || args.options.iter().any(|(f, _)| *f == word);
            if given {
                return Err(format!("`{word}` given twice"));
            }
            if switches.contains(&word.as_str()) {
                args.switches.push(word);
            } else if options.contains(&word.as_str()) {
                let value = argv
                    .next()
                    .ok_or_else(|| format!("`{word}` needs a value"))?;
                args.options.push((word, value));
            } else {
                return Err(format!("unknown argument `{word}`"));
            }
        }
        Ok(args)
    }

    /// The value of option `flag` parsed as a `T`, or `default` if the
    /// flag was not given.
    ///
    /// # Errors
    ///
    /// The value does not parse as a `T`.
    pub fn try_value<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.options.iter().find(|(f, _)| f == flag) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("`{flag}` got `{v}`, which does not parse")),
        }
    }

    /// [`Args::try_value`]; on an error, prints it and the usage line to
    /// stderr and exits with status 2.
    pub fn value<T: std::str::FromStr>(&self, flag: &str, default: T) -> T {
        self.try_value(flag, default)
            .unwrap_or_else(|e| fail(self.usage, &e))
    }

    /// Whether switch `flag` was given.
    pub fn present(&self, flag: &str) -> bool {
        self.switches.iter().any(|f| f == flag)
    }
}

/// Reports a command-line error with the bin's usage and exits with
/// status 2: for a word no parser declares, or a value that parses but
/// that the bin cannot run with.
pub fn fail(usage: &str, err: &str) -> ! {
    eprintln!("error: {err}\nusage: {usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        Args::parse(
            "bin [--full] [--ops N]",
            &["--full"],
            &["--ops"],
            words.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn arg_parsing() {
        let args = parse(&["--ops", "123", "--full"]).unwrap();
        assert_eq!(args.try_value("--ops", 5usize), Ok(123));
        assert!(args.present("--full"));
        let args = parse(&[]).unwrap();
        assert_eq!(args.try_value("--ops", 5usize), Ok(5));
        assert!(!args.present("--full"));
    }

    #[test]
    fn undeclared_or_malformed_flags_are_errors() {
        for (words, err) in [
            (&["--edges", "5"][..], "unknown argument `--edges`"),
            (&["--ops"][..], "`--ops` needs a value"),
            (&["--ops", "1", "--ops", "2"][..], "`--ops` given twice"),
            (&["--full", "--full"][..], "`--full` given twice"),
            (&["--full", "7"][..], "unknown argument `7`"),
        ] {
            assert_eq!(parse(words).unwrap_err(), err, "{words:?}");
        }
        let args = parse(&["--ops", "garbage"]).unwrap();
        assert_eq!(
            args.try_value("--ops", 5usize).unwrap_err(),
            "`--ops` got `garbage`, which does not parse"
        );
    }
}
