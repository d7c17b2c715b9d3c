//! The one argument parser of `hpcc`: a subcommand names its options, each
//! of which takes a value, and how many positionals it accepts; anything
//! else — an option that belongs to another subcommand, a typo, a stray
//! argument — is a usage error, never ignored.

use crate::die;
use std::str::FromStr;

/// One parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// Parse `args` (program and subcommand names already stripped) against
    /// the `options` and the positional limit of one (sub)command. The error
    /// is a usage error: print it with the usage line and exit 2.
    pub fn parse(args: &[String], options: &[&str], max_positional: usize) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if options.contains(&arg.as_str()) {
                // A following option is not a value: `--report --manifest m`
                // must error, not write a file named "--manifest".
                match it.next() {
                    Some(value) if !value.starts_with("--") => {
                        out.given.push((arg.clone(), value.clone()));
                    }
                    _ => return Err(format!("{arg} needs a value")),
                }
            } else if arg.starts_with("--") {
                return Err(format!("{arg} is not an option of this command"));
            } else if out.positional.len() == max_positional {
                return Err(format!("unexpected argument {arg:?}"));
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    /// The value given for `option` (the last one wins).
    pub fn value(&self, option: &str) -> Option<&str> {
        let found = self.given.iter().rev().find(|(name, _)| name == option);
        found.map(|(_, value)| value.as_str())
    }

    /// The value of `option` parsed into `T`; exits 2 when it does not
    /// parse or fails `valid`.
    pub fn parsed<T: FromStr>(&self, option: &str, valid: impl Fn(&T) -> bool) -> Option<T> {
        self.value(option).map(|text| {
            let parsed = text.parse().ok().filter(|v| valid(v));
            parsed.unwrap_or_else(|| die(format!("bad value {text:?} for {option}")))
        })
    }

    /// The positional arguments, in order (parse one with [`crate::arg_or`]).
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        Args::parse(&args, &["--report", "--n"], 2)
    }

    #[test]
    fn accepts_only_what_the_command_declares() {
        let args = parse("a --report out.json --n 1 --n 2 b").unwrap();
        assert_eq!(args.positional(), ["a", "b"]);
        assert_eq!(args.value("--report"), Some("out.json"));
        assert_eq!(args.value("--quiet"), None);
        assert_eq!(args.parsed("--n", |n: &u32| *n >= 1), Some(2), "last wins");
        assert_eq!(args.parsed::<u32>("--absent", |_| true), None);
        for bad in ["--bogus 2", "--report", "--report --n 1", "a b c"] {
            assert!(parse(bad).is_err(), "{bad:?} must be a usage error");
        }
    }
}
