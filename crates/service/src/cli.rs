//! Strict command lines for the server binaries (`secddr-serve` and
//! `secddr-dispatch`).
//!
//! Every flag takes exactly one value. An unknown argument, a flag with
//! no value after it, or a value that does not parse is an error: the
//! binary prints it with its usage line on stderr and exits 2, instead of
//! starting on a default the caller did not ask for. `--help` prints the
//! usage line on stdout and exits 0.

use std::fmt;
use std::str::FromStr;

/// Why a command line was rejected.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// An argument that is none of the known flags.
    Unknown(String),
    /// A known flag in last position, with no value after it.
    MissingValue(&'static str),
    /// A flag's value (or its environment variable's) did not parse.
    Invalid {
        /// The flag or environment variable the value came from.
        source: String,
        value: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unknown(arg) => write!(f, "unknown argument `{arg}`"),
            Self::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            Self::Invalid { source, value } => write!(f, "invalid value `{value}` for `{source}`"),
        }
    }
}

/// A parsed command line: the value given for each known flag.
#[derive(Debug)]
pub struct Cli {
    usage: &'static str,
    values: Vec<(&'static str, String)>,
}

impl Cli {
    /// Parses `args` (without the program name) against the value-taking
    /// flags in `known`. `Ok(None)` means help was asked for.
    fn parse(
        usage: &'static str,
        args: &[String],
        known: &[&'static str],
    ) -> Result<Option<Self>, CliError> {
        let mut values = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" {
                return Ok(None);
            }
            let Some(&flag) = known.iter().find(|&&k| k == arg) else {
                return Err(CliError::Unknown(arg.clone()));
            };
            let value = args.next().ok_or(CliError::MissingValue(flag))?;
            values.push((flag, value.clone()));
        }
        Ok(Some(Self { usage, values }))
    }

    /// Parses the process's arguments, or exits: 0 after printing the
    /// usage line for `--help`, 2 after printing the error and the usage
    /// line to stderr for a bad command line.
    pub fn from_env(usage: &'static str, known: &[&'static str]) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse(usage, &args, known) {
            Ok(Some(cli)) => cli,
            Ok(None) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(e) => exit_usage(usage, &e),
        }
    }

    /// As [`Self::value`], returning the error instead of exiting.
    fn lookup<T: FromStr>(&self, flag: &str, env: Option<&str>) -> Result<Option<T>, CliError> {
        let given = match self.values.iter().find(|(f, _)| *f == flag) {
            Some((_, value)) => Some((flag.to_string(), value.clone())),
            None => env.and_then(|name| Some((name.to_string(), std::env::var(name).ok()?))),
        };
        let Some((source, value)) = given else {
            return Ok(None);
        };
        match value.parse() {
            Ok(v) => Ok(Some(v)),
            Err(_) => Err(CliError::Invalid { source, value }),
        }
    }

    /// The value of `flag` (the first one if repeated), else of the
    /// environment variable `env`, parsed as `T`; `None` when neither is
    /// set. A value that does not parse prints the error and the usage
    /// line to stderr and exits 2.
    pub fn value<T: FromStr>(&self, flag: &str, env: Option<&str>) -> Option<T> {
        self.lookup(flag, env)
            .unwrap_or_else(|e| exit_usage(self.usage, &e))
    }
}

fn exit_usage(usage: &str, error: &CliError) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: test [--port N] [--name S]";
    const KNOWN: &[&str] = &["--port", "--name"];

    fn parse(args: &[&str]) -> Result<Option<Cli>, CliError> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Cli::parse(USAGE, &args, KNOWN)
    }

    #[test]
    fn known_flags_take_their_values() {
        let cli = parse(&["--port", "7", "--name", "x", "--port", "9"])
            .unwrap()
            .unwrap();
        assert_eq!(
            cli.lookup::<u16>("--port", None),
            Ok(Some(7)),
            "first one wins"
        );
        assert_eq!(cli.lookup::<String>("--name", None), Ok(Some("x".into())));
        let empty = parse(&[]).unwrap().unwrap();
        assert_eq!(empty.lookup::<u16>("--port", None), Ok(None));
    }

    #[test]
    fn help_asks_for_usage() {
        assert!(parse(&["--help"]).unwrap().is_none());
        assert!(parse(&["--port", "1", "--help"]).unwrap().is_none());
    }

    #[test]
    fn unknown_and_valueless_flags_are_errors() {
        assert_eq!(
            parse(&["--bogus"]).unwrap_err(),
            CliError::Unknown("--bogus".into())
        );
        assert_eq!(
            parse(&["7450"]).unwrap_err(),
            CliError::Unknown("7450".into())
        );
        assert_eq!(
            parse(&["--name", "x", "--port"]).unwrap_err(),
            CliError::MissingValue("--port")
        );
    }

    #[test]
    fn unparsable_values_are_errors() {
        let cli = parse(&["--port", "abc"]).unwrap().unwrap();
        assert_eq!(
            cli.lookup::<u16>("--port", None),
            Err(CliError::Invalid {
                source: "--port".into(),
                value: "abc".into(),
            })
        );
        let cli = parse(&["--port", "70000"]).unwrap().unwrap();
        assert!(cli.lookup::<u16>("--port", None).is_err(), "out of range");
    }

    #[test]
    fn an_unset_environment_variable_is_no_value() {
        let cli = parse(&[]).unwrap().unwrap();
        let unset = "SECDDR_CLI_TEST_NEVER_SET";
        assert_eq!(cli.lookup::<u16>("--port", Some(unset)), Ok(None));
    }
}
