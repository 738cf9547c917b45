//! The command-line parser every `wade-bench` binary shares.
//!
//! A command line mixes positional arguments, value flags (`--flag VALUE`
//! or `--flag=VALUE`) and switches (`--flag`). Each binary names the flags
//! it accepts; anything else starting with `--` is an error, so a misspelt
//! flag can never silently run the defaults. The parse is pure; binaries
//! turn an error into a usage line and exit status 2 with [`exit_usage`].

use std::collections::HashMap;
use std::path::PathBuf;

/// A parsed command line.
#[derive(Debug, Default, PartialEq)]
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// Each flag given, with its value (empty for a switch). The last
    /// occurrence wins.
    pub flags: HashMap<String, String>,
}

impl Args {
    /// The value of a flag, if given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// The artifact-store directory: `--store-dir` > `WADE_STORE_DIR` >
    /// `target/wade-store`.
    pub fn store_dir(&self) -> PathBuf {
        wade_store::resolve_dir(self.value("--store-dir"))
    }
}

/// Parses `args` (the command line without the program name), accepting
/// the value flags in `value_flags` and the switches in `switches`.
///
/// # Errors
/// A message naming the first argument that is an unknown flag, a value
/// flag without a non-empty value (a following `--…` is not a value), or
/// a switch given a value.
pub fn parse(args: &[String], value_flags: &[&str], switches: &[&str]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if !arg.starts_with("--") {
            parsed.positional.push(arg.clone());
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        let value = if value_flags.contains(&flag) {
            inline
                .or_else(|| rest.next().map(String::as_str).filter(|v| !v.starts_with("--")))
                .filter(|v| !v.is_empty())
                .ok_or_else(|| format!("{flag} requires a value"))?
        } else if switches.contains(&flag) {
            if inline.is_some() {
                return Err(format!("{flag} takes no value"));
            }
            ""
        } else {
            return Err(format!("unknown flag {arg}"));
        };
        parsed.flags.insert(flag.to_string(), value.to_string());
    }
    Ok(parsed)
}

/// Prints `error: {msg}` and the usage line, then exits with status 2.
pub fn exit_usage(msg: &str, usage: &str) -> ! {
    eprintln!("error: {msg}\nusage: {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = words.iter().map(|w| w.to_string()).collect();
        parse(&args, &["--store-dir", "--seed"], &["--smoke"])
    }

    #[test]
    fn flags_parse_in_either_form_anywhere() {
        let spaced = parse_words(&["--store-dir", "X"]).unwrap();
        assert_eq!(spaced, parse_words(&["--store-dir=X"]).unwrap());
        assert_eq!(spaced.store_dir(), PathBuf::from("X"));
        let mixed = parse_words(&["store", "--seed", "5", "--smoke", "gc", "--seed=6"]).unwrap();
        assert_eq!(mixed.positional, ["store", "gc"]);
        assert_eq!((mixed.value("--seed"), mixed.value("--smoke")), (Some("6"), Some("")));
    }

    #[test]
    fn misspelt_flags_and_missing_values_are_errors() {
        for (words, error) in [
            (&["--stor-dir", "X"][..], "unknown flag --stor-dir"),
            (&["--stor-dir=X"], "unknown flag --stor-dir=X"),
            (&["--store-dir"], "--store-dir requires a value"),
            (&["--store-dir="], "--store-dir requires a value"),
            (&["--store-dir", "--smoke"], "--store-dir requires a value"),
            (&["--smoke=1"], "--smoke takes no value"),
        ] {
            assert_eq!(parse_words(words), Err(error.to_string()), "{words:?}");
        }
    }
}
