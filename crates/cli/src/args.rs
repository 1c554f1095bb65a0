//! A small, dependency-free command-line argument parser.
//!
//! Supports `--flag value`, `--flag=value` and boolean `--flag` forms.
//! Unknown flags are an error (catching typos beats silently ignoring
//! them); every command documents its flags in [`crate::usage`].

use std::collections::BTreeMap;
use std::fmt;

/// Parsed arguments: the subcommand, an optional positional operand
/// (e.g. `sweep <spec.toml>`), plus the flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag token), if any.
    pub command: Option<String>,
    /// The positional operand (second non-flag token), if any. Only the
    /// `sweep` command accepts one; `main` rejects it elsewhere.
    pub operand: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Argument-parsing errors, with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A token that is neither the subcommand nor a `--flag`.
    UnexpectedToken(String),
    /// `--flag` appeared twice.
    DuplicateFlag(String),
    /// A flag this command does not understand.
    UnknownFlag(String),
    /// A flag value failed to parse.
    InvalidValue {
        /// Flag name.
        flag: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnexpectedToken(t) => write!(f, "unexpected argument '{t}'"),
            ArgError::DuplicateFlag(t) => write!(f, "flag --{t} given more than once"),
            ArgError::UnknownFlag(t) => write!(f, "unknown flag --{t}"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "invalid value '{value}' for --{flag}: expected {expected}"
            ),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw tokens (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on malformed input; the caller prints usage.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(flag) = tok.strip_prefix("--") {
                let (name, value) = match flag.split_once('=') {
                    Some((n, v)) => (n.to_string(), Some(v.to_string())),
                    None => {
                        // A value follows unless the next token is a flag.
                        let takes_value =
                            iter.peek().map(|n| !n.starts_with("--")).unwrap_or(false);
                        if takes_value {
                            (flag.to_string(), iter.next())
                        } else {
                            (flag.to_string(), None)
                        }
                    }
                };
                if args.flags.contains_key(&name) {
                    return Err(ArgError::DuplicateFlag(name));
                }
                args.flags
                    .insert(name, value.unwrap_or_else(|| "true".into()));
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else if args.operand.is_none() {
                args.operand = Some(tok);
            } else {
                return Err(ArgError::UnexpectedToken(tok));
            }
        }
        Ok(args)
    }

    /// Checks that every provided flag is in the allowed set.
    ///
    /// # Errors
    ///
    /// [`ArgError::UnknownFlag`] naming the first unknown flag.
    pub fn allow(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::UnknownFlag(k.clone()));
            }
        }
        Ok(())
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// String flag with a default.
    pub fn str_or(&self, name: &str, default: &str) -> String {
        self.get(name).unwrap_or(default).to_string()
    }

    /// Boolean flag (present without value, or an explicit true/false).
    pub fn flag(&self, name: &str) -> bool {
        matches!(self.get(name), Some("true") | Some("1") | Some("yes"))
    }

    /// `sweep`'s `--parallelism` knob (cell workers): absent = `None`
    /// (sequential), `auto` = `Some(0)` (all cores), `<n>` = `Some(n)`
    /// worker threads.
    ///
    /// # Errors
    ///
    /// [`ArgError::InvalidValue`] when the value is neither `auto` nor an
    /// unsigned integer.
    pub fn parallelism(&self) -> Result<Option<usize>, ArgError> {
        match self.get("parallelism") {
            None => Ok(None),
            Some("auto") => Ok(Some(0)),
            Some(v) => v
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ArgError::InvalidValue {
                    flag: "parallelism".to_string(),
                    value: v.to_string(),
                    expected: "'auto' or a thread count",
                }),
        }
    }

    /// Typed flag with a default.
    ///
    /// # Errors
    ///
    /// [`ArgError::InvalidValue`] when the value does not parse as `T`.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse::<T>().map_err(|_| ArgError::InvalidValue {
                flag: name.to_string(),
                value: v.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_flag_forms() {
        let a = parse("run --scheduler rubick --jobs=100 --csv").unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("scheduler"), Some("rubick"));
        assert_eq!(a.get("jobs"), Some("100"));
        assert!(a.flag("csv"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn typed_parsing_with_defaults() {
        let a = parse("run --load 1.5").unwrap();
        assert_eq!(a.parse_or("load", 1.0).unwrap(), 1.5);
        assert_eq!(a.parse_or("seed", 7u64).unwrap(), 7);
        assert!(a.parse_or::<u64>("load", 0).is_err());
    }

    #[test]
    fn rejects_duplicates_and_strays() {
        // One positional operand is captured (the sweep spec path);
        // commands that take none reject it in `main`.
        let a = parse("sweep examples/sweeps/table4.toml").unwrap();
        assert_eq!(a.command.as_deref(), Some("sweep"));
        assert_eq!(a.operand.as_deref(), Some("examples/sweeps/table4.toml"));
        assert_eq!(
            parse("sweep spec.toml extra"),
            Err(ArgError::UnexpectedToken("extra".into()))
        );
        assert_eq!(
            parse("run --x 1 --x 2"),
            Err(ArgError::DuplicateFlag("x".into()))
        );
    }

    #[test]
    fn allowlist_catches_typos() {
        let a = parse("run --schduler rubick").unwrap();
        assert_eq!(
            a.allow(&["scheduler"]),
            Err(ArgError::UnknownFlag("schduler".into()))
        );
    }

    #[test]
    fn boolean_flag_followed_by_flag() {
        let a = parse("run --csv --jobs 5").unwrap();
        assert!(a.flag("csv"));
        assert_eq!(a.get("jobs"), Some("5"));
    }

    #[test]
    fn errors_display_cleanly() {
        let e = ArgError::InvalidValue {
            flag: "jobs".into(),
            value: "ten".into(),
            expected: "usize",
        };
        assert!(e.to_string().contains("--jobs"));
    }
}
