//! A tiny flag parser (the workspace deliberately has no CLI
//! dependency).

use std::time::Duration;

/// Shared experiment parameters. Every bench binary accepts the same
/// flags; unknown flags abort with a usage message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Corpus seed (`--seed`).
    pub seed: u64,
    /// Samples per MBA category (`--per-category`; paper: 1000).
    pub per_category: usize,
    /// Bit width of equivalence queries (`--width`; paper: 64 — the
    /// default 16 reproduces the paper's hardness contrast at laptop
    /// timeouts).
    pub width: u32,
    /// Per-query solver timeout in ms (`--timeout-ms`; paper: 1 h).
    pub timeout_ms: u64,
    /// Worker threads for *solver* queries (`--threads`; default:
    /// available parallelism).
    pub threads: usize,
    /// Worker threads for *simplification* batches (`--jobs`; default:
    /// available parallelism).
    pub jobs: usize,
    /// Whether the simplifier's caches (lookup table + signature cache)
    /// are enabled (`--no-cache` clears it).
    pub use_cache: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            seed: 0x4d42_4153,
            per_category: 100,
            width: 16,
            timeout_ms: 1000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            use_cache: true,
        }
    }
}

impl ExperimentConfig {
    /// Parses `args` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage string on unknown flags or malformed values.
    pub fn parse(args: &[String]) -> Result<ExperimentConfig, String> {
        let mut config = ExperimentConfig::default();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut take = |name: &str| -> Result<&String, String> {
                iter.next()
                    .ok_or_else(|| format!("{name} requires a value\n{}", Self::usage()))
            };
            match flag.as_str() {
                "--seed" => config.seed = parse_num(take("--seed")?)?,
                "--per-category" => config.per_category = parse_num(take("--per-category")?)?,
                "--width" => {
                    config.width = parse_num(take("--width")?)?;
                    if !(1..=64).contains(&config.width) {
                        return Err("--width must be in 1..=64".into());
                    }
                }
                "--timeout-ms" => config.timeout_ms = parse_num(take("--timeout-ms")?)?,
                "--threads" => {
                    config.threads = parse_num(take("--threads")?)?;
                    if config.threads == 0 {
                        return Err("--threads must be positive".into());
                    }
                }
                "--jobs" => {
                    config.jobs = parse_num(take("--jobs")?)?;
                    if config.jobs == 0 {
                        return Err("--jobs must be positive".into());
                    }
                }
                "--no-cache" => config.use_cache = false,
                "--help" | "-h" => return Err(Self::usage()),
                other => return Err(format!("unknown flag `{other}`\n{}", Self::usage())),
            }
        }
        Ok(config)
    }

    /// Parses from `std::env::args`, exiting with a message on error.
    pub fn from_env() -> ExperimentConfig {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(&args) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The per-query timeout as a [`Duration`].
    pub fn timeout(&self) -> Duration {
        Duration::from_millis(self.timeout_ms)
    }

    /// Usage text.
    pub fn usage() -> String {
        "usage: <bin> [--seed N] [--per-category N] [--width 1..=64] \
         [--timeout-ms N] [--threads N] [--jobs N] [--no-cache]"
            .to_string()
    }

    /// One-line description of the active scale, printed by every
    /// binary so outputs are self-describing.
    pub fn banner(&self) -> String {
        format!(
            "seed={} per-category={} width={} timeout={}ms threads={} jobs={} cache={}",
            self.seed,
            self.per_category,
            self.width,
            self.timeout_ms,
            self.threads,
            self.jobs,
            if self.use_cache { "on" } else { "off" }
        )
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("malformed numeric value `{s}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExperimentConfig, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        ExperimentConfig::parse(&owned)
    }

    #[test]
    fn defaults_without_flags() {
        let c = parse(&[]).unwrap();
        assert_eq!(c.per_category, 100);
        assert_eq!(c.width, 16);
    }

    #[test]
    fn flags_override_defaults() {
        let c = parse(&[
            "--seed",
            "7",
            "--per-category",
            "12",
            "--width",
            "16",
            "--timeout-ms",
            "250",
            "--threads",
            "2",
        ])
        .unwrap();
        assert_eq!(c.seed, 7);
        assert_eq!(c.per_category, 12);
        assert_eq!(c.width, 16);
        assert_eq!(c.timeout(), Duration::from_millis(250));
        assert_eq!(c.threads, 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse(&["--width", "0"]).is_err());
        assert!(parse(&["--width", "65"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
    }

    #[test]
    fn jobs_and_no_cache_flags() {
        let c = parse(&["--jobs", "3", "--no-cache"]).unwrap();
        assert_eq!(c.jobs, 3);
        assert!(!c.use_cache);
        assert!(parse(&[]).unwrap().use_cache);
        assert!(c.banner().contains("cache=off"));
        assert!(ExperimentConfig::usage().contains("--no-cache"));
        assert!(ExperimentConfig::usage().contains("--jobs"));
    }

    #[test]
    fn help_returns_usage() {
        let err = parse(&["--help"]).unwrap_err();
        assert!(err.contains("usage:"));
    }
}
