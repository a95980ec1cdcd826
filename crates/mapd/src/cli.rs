//! The flag parser shared by `mapd`, `map_file` and the experiment
//! binaries.
//!
//! Nothing here panics: malformed flags surface as `Err(String)` so binaries
//! can print the message plus their usage line and exit with code 2. When a
//! flag is given more than once, the first occurrence wins. `--help`/`-h`
//! is handled by [`help_requested`] before anything else is parsed.

use std::str::FromStr;
use std::sync::Arc;

use tie_trace::{JsonlSink, StderrSink, TraceHandle, TraceLevel};

/// The value following the first `flag`, if present. A flag given as the
/// last argument has no value and reads as absent; [`try_flag_value`]
/// reports that case as an error instead.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

/// [`flag_value`] for a flag that takes a value.
///
/// # Errors
/// `flag` is the last argument, so nothing follows it.
pub fn try_flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match flag_value(args, flag) {
        None if has_flag(args, flag) => Err(format!("{flag} needs a value")),
        value => Ok(value),
    }
}

/// Whether `flag` appears at all (valueless switches like `--json`).
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Handles `--help`/`-h`: when either is among `args`, prints `usage` to
/// stdout and returns true. Binaries call this first and then exit 0
/// without doing any work.
pub fn help_requested(args: &[String], usage: &str) -> bool {
    let wanted = has_flag(args, "--help") || has_flag(args, "-h");
    if wanted {
        println!("{usage}");
    }
    wanted
}

/// Parses the value of `flag`, falling back to `default` when absent.
///
/// # Errors
/// A one-line message naming the flag and the unparsable or missing value.
pub fn parsed_flag<T: FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match try_flag_value(args, flag)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag} needs a valid value, got {v:?}")),
        None => Ok(default),
    }
}

/// Builds a [`TraceHandle`] for `--trace-out`: `-` streams human-readable
/// events to stderr, any other value is a JSONL output path.
///
/// # Errors
/// An unwritable path is reported as an `Err` instead of panicking.
pub fn make_trace_handle(path: &str, level: TraceLevel) -> Result<TraceHandle, String> {
    if path == "-" {
        Ok(TraceHandle::new(Arc::new(StderrSink), level))
    } else {
        let sink = JsonlSink::create(path)
            .map_err(|e| format!("cannot open trace output {path:?}: {e}"))?;
        Ok(TraceHandle::new(Arc::new(sink), level))
    }
}

/// Resolves `--trace-out PATH|-` and `--trace-level off|gate|phase|debug`
/// into a handle: off when no `--trace-out` is given, level `phase` by
/// default when it is. The level is validated even without `--trace-out`.
///
/// # Errors
/// Unknown levels, missing values and unwritable paths.
pub fn trace_from_flags(args: &[String]) -> Result<TraceHandle, String> {
    let level = match try_flag_value(args, "--trace-level")? {
        Some(v) => TraceLevel::parse(v)
            .ok_or_else(|| format!("--trace-level needs off|gate|phase|debug, got {v:?}"))?,
        None => TraceLevel::Phase,
    };
    match try_flag_value(args, "--trace-out")? {
        Some(path) => make_trace_handle(path, level),
        None => Ok(TraceHandle::off()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_helpers_parse_and_default() {
        let a = args(&["--nh", "12", "--json"]);
        assert_eq!(flag_value(&a, "--nh"), Some("12"));
        assert_eq!(flag_value(&a, "--seed"), None);
        assert!(has_flag(&a, "--json"));
        assert!(!has_flag(&a, "--client"));
        assert_eq!(parsed_flag(&a, "--nh", 50usize).unwrap(), 12);
        assert_eq!(parsed_flag(&a, "--seed", 7u64).unwrap(), 7);
        assert!(parsed_flag::<usize>(&args(&["--nh", "x"]), "--nh", 1).is_err());
        // The first occurrence wins.
        assert_eq!(
            flag_value(&args(&["--nh", "1", "--nh", "2"]), "--nh"),
            Some("1")
        );
        // A value flag with nothing after it is an error naming the flag.
        let dangling = args(&["--json", "--nh"]);
        assert_eq!(flag_value(&dangling, "--nh"), None);
        assert_eq!(try_flag_value(&dangling, "--seed"), Ok(None));
        assert!(try_flag_value(&dangling, "--nh")
            .unwrap_err()
            .contains("--nh"));
        assert!(parsed_flag(&dangling, "--nh", 50usize)
            .unwrap_err()
            .contains("--nh"));
        // `--help` and `-h` are recognised anywhere, and nothing else is.
        for help in [
            &["--help"][..],
            &["-h"],
            &["--nh", "3", "--help"],
            &["-h", "--nh"],
        ] {
            assert!(help_requested(&args(help), "usage: test"), "{help:?}");
        }
        assert!(!help_requested(&a, "usage: test"));
        assert!(!help_requested(&args(&["--helpful", "-hh"]), "usage: test"));
    }

    #[test]
    fn trace_flags_resolve() {
        assert!(!trace_from_flags(&args(&[]))
            .unwrap()
            .enabled(TraceLevel::Gate));
        let h = trace_from_flags(&args(&["--trace-out", "-"])).unwrap();
        assert!(h.enabled(TraceLevel::Phase));
        assert!(!h.enabled(TraceLevel::Debug));
        assert!(trace_from_flags(&args(&["--trace-out", "-", "--trace-level", "bogus"])).is_err());
        assert!(trace_from_flags(&args(&["--trace-level", "bogus"])).is_err());
        for flag in ["--trace-out", "--trace-level"] {
            let err = trace_from_flags(&args(&[flag])).unwrap_err();
            assert!(err.contains(flag), "{err}");
        }
    }
}
