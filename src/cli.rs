//! Command-line interface plumbing for the `pmemflow` binary.
//!
//! Deliberately dependency-free: a small typed argument parser plus the
//! workload/stack lookups shared by the subcommands. The binary itself
//! lives in `src/main.rs`.

use pmemflow_core::SchedConfig;
use pmemflow_iostack::StackKind;
use pmemflow_workloads::{Family, WorkflowSpec};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

/// Parsed command line: a subcommand plus `--key value` options.
///
/// Every key looked up through [`Args::get`] or [`Args::get_parse`] is
/// recorded, so once a subcommand has read its options,
/// [`Args::reject_unread`] turns a key nothing read (a typo, or an option
/// another subcommand takes) into an error instead of silently ignoring it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs, in input order for duplicates last-wins.
    pub options: BTreeMap<String, String>,
    /// Keys looked up so far.
    read: RefCell<BTreeSet<String>>,
}

/// Errors from parsing or resolving arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` without a value.
    MissingValue(String),
    /// A positional argument where an option was expected.
    UnexpectedPositional(String),
    /// An option the subcommand does not read.
    UnusedOption {
        /// The subcommand.
        command: String,
        /// The option name.
        option: String,
    },
    /// An option value failed to parse.
    BadValue {
        /// The option name.
        option: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Unknown workload/stack/config name.
    UnknownName {
        /// What kind of name.
        kind: &'static str,
        /// The offending value.
        value: String,
        /// Valid choices.
        choices: &'static str,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no subcommand given; try `pmemflow help`"),
            CliError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            CliError::UnexpectedPositional(p) => {
                write!(f, "unexpected positional argument {p:?}")
            }
            CliError::UnusedOption { command, option } => write!(
                f,
                "`pmemflow {command}` takes no option --{option}; try `pmemflow help`"
            ),
            CliError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value}: expected {expected}"),
            CliError::UnknownName {
                kind,
                value,
                choices,
            } => write!(f, "unknown {kind} \"{value}\"; choices: {choices}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parse an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, CliError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(CliError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(CliError::MissingCommand);
        }
        let mut options = BTreeMap::new();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| CliError::MissingValue(key.into()))?;
                options.insert(key.to_string(), value);
            } else {
                return Err(CliError::UnexpectedPositional(a));
            }
        }
        Ok(Args {
            command,
            options,
            read: RefCell::default(),
        })
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.read.borrow_mut().insert(key.to_string());
        self.options.get(key).map(String::as_str)
    }

    /// A parsed option with a default.
    pub fn get_parse<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                option: key.into(),
                value: v.into(),
                expected,
            }),
        }
    }

    /// A parsed count option with a default; zero is rejected.
    pub fn get_positive<T: std::str::FromStr + Default + PartialEq>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, CliError> {
        let value = self.get_parse(key, default, expected)?;
        if value == T::default() {
            return Err(CliError::BadValue {
                option: key.into(),
                value: "0".into(),
                expected,
            });
        }
        Ok(value)
    }

    /// Fail on the first option that no [`Args::get`] or
    /// [`Args::get_parse`] call has read. Call it once the subcommand has
    /// read all of its options, before it does any work.
    pub fn reject_unread(&self) -> Result<(), CliError> {
        let read = self.read.borrow();
        match self.options.keys().find(|k| !read.contains(*k)) {
            None => Ok(()),
            Some(option) => Err(CliError::UnusedOption {
                command: self.command.clone(),
                option: option.clone(),
            }),
        }
    }
}

/// Valid workload names for `--workload`.
pub use pmemflow_workloads::WORKLOAD_CHOICES;

/// Build a suite workload by name at the given rank count. Name resolution
/// lives in [`pmemflow_workloads::Family::parse`] so the CLI and the
/// serving daemon accept exactly the same spellings.
pub fn workload_by_name(name: &str, ranks: usize) -> Result<WorkflowSpec, CliError> {
    match Family::parse(name) {
        Some(family) => Ok(family.build(ranks)),
        None => Err(CliError::UnknownName {
            kind: "workload",
            value: name.into(),
            choices: WORKLOAD_CHOICES,
        }),
    }
}

/// Resolve `--stack` (default NVStream).
pub fn stack_by_name(name: Option<&str>) -> Result<StackKind, CliError> {
    match name {
        None => Ok(StackKind::NvStream),
        Some(v) => StackKind::parse(v).ok_or_else(|| CliError::UnknownName {
            kind: "stack",
            value: v.to_ascii_lowercase(),
            choices: "nvstream, nova",
        }),
    }
}

/// Resolve `--config` (no default: `None` means "all four").
pub fn config_by_name(name: Option<&str>) -> Result<Option<SchedConfig>, CliError> {
    match name {
        None => Ok(None),
        Some(v) => SchedConfig::parse(v)
            .map(Some)
            .ok_or_else(|| CliError::UnknownName {
                kind: "config",
                value: v.into(),
                choices: "S-LocW, S-LocR, P-LocW, P-LocR",
            }),
    }
}

/// Parse a comma-separated list of rank counts (for `--candidates`).
pub fn parse_rank_list(s: &str) -> Result<Vec<usize>, CliError> {
    s.split(',')
        .map(|p| {
            p.trim().parse().map_err(|_| CliError::BadValue {
                option: "candidates".into(),
                value: p.into(),
                expected: "comma-separated rank counts, e.g. 8,16,24",
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, CliError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_options() {
        let a = args(&["sweep", "--workload", "gtc-readonly", "--ranks", "16"]).unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.get("workload"), Some("gtc-readonly"));
        assert_eq!(a.get_parse("ranks", 8usize, "int").unwrap(), 16);
    }

    #[test]
    fn duplicate_flags_last_wins() {
        // The `Args` docs promise last-wins for repeated options; `BTreeMap::insert`
        // replaces the prior value, so the final occurrence is the one kept.
        let a = args(&["sweep", "--ranks", "8", "--ranks", "24"]).unwrap();
        assert_eq!(a.get("ranks"), Some("24"));
        assert_eq!(a.get_parse("ranks", 0usize, "int").unwrap(), 24);
        assert_eq!(a.options.len(), 1);
    }

    #[test]
    fn default_used_when_absent() {
        let a = args(&["sweep"]).unwrap();
        assert_eq!(a.get_parse("ranks", 8usize, "int").unwrap(), 8);
    }

    #[test]
    fn errors_are_reported() {
        assert_eq!(args(&[]).unwrap_err(), CliError::MissingCommand);
        assert_eq!(
            args(&["run", "--ranks"]).unwrap_err(),
            CliError::MissingValue("ranks".into())
        );
        assert!(matches!(
            args(&["run", "stray"]).unwrap_err(),
            CliError::UnexpectedPositional(_)
        ));
        let a = args(&["run", "--ranks", "many"]).unwrap();
        assert!(matches!(
            a.get_parse("ranks", 8usize, "an integer"),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn unread_options_are_rejected() {
        // A misspelt option is named in the error, not silently ignored.
        let a = args(&["suite", "--jbos", "4"]).unwrap();
        assert_eq!(a.get_parse("jobs", 1usize, "int").unwrap(), 1);
        let e = a.reject_unread().unwrap_err();
        assert_eq!(
            e,
            CliError::UnusedOption {
                command: "suite".into(),
                option: "jbos".into(),
            }
        );
        assert!(e.to_string().contains("--jbos"), "{e}");
        // Both accessors mark a key read, whether or not it was given.
        let a = args(&["sweep", "--workload", "micro-2kb", "--ranks", "8"]).unwrap();
        assert_eq!(a.get("workload"), Some("micro-2kb"));
        assert!(a.get("stack").is_none());
        assert!(a.reject_unread().is_err(), "--ranks is still unread");
        a.get_parse("ranks", 0usize, "int").unwrap();
        assert_eq!(a.reject_unread(), Ok(()));
        assert_eq!(args(&["devicebench"]).unwrap().reject_unread(), Ok(()));
    }

    #[test]
    fn workload_lookup() {
        assert!(workload_by_name("micro-64mb", 8).is_ok());
        assert!(workload_by_name("GTC-MatMult", 8).is_ok());
        assert!(matches!(
            workload_by_name("hpl", 8),
            Err(CliError::UnknownName { .. })
        ));
    }

    #[test]
    fn stack_and_config_lookup() {
        assert_eq!(stack_by_name(None).unwrap(), StackKind::NvStream);
        assert_eq!(stack_by_name(Some("nova")).unwrap(), StackKind::Nova);
        assert!(stack_by_name(Some("ext4")).is_err());
        assert_eq!(config_by_name(None).unwrap(), None);
        assert_eq!(
            config_by_name(Some("p-locr")).unwrap(),
            Some(SchedConfig::P_LOC_R)
        );
        assert!(config_by_name(Some("X")).is_err());
    }

    #[test]
    fn rank_list() {
        assert_eq!(parse_rank_list("8,16, 24").unwrap(), vec![8, 16, 24]);
        assert!(parse_rank_list("8,x").is_err());
    }

    #[test]
    fn error_messages_are_informative() {
        let e = CliError::UnknownName {
            kind: "workload",
            value: "hpl".into(),
            choices: WORKLOAD_CHOICES,
        };
        let msg = e.to_string();
        assert!(msg.contains("hpl") && msg.contains("micro-64mb"));
        // Values are printed verbatim, not Debug-escaped.
        let e = CliError::BadValue {
            option: "arrivals".into(),
            value: "mix=x: unknown mix token \"x\"".into(),
            expected: "a spec",
        };
        assert_eq!(
            e.to_string(),
            "--arrivals mix=x: unknown mix token \"x\": expected a spec"
        );
    }
}
