//! Shared flag parsing for the `raw-bench` subcommands.
//!
//! Every subcommand (`trace`, `compile`, `scenario`, `sim`, `serve`,
//! `replay`, `top`) and the flag-driven paper tables take the same shape of
//! argument list — a flat sequence of `--flag` switches and `--flag VALUE`
//! pairs. [`FlagParser`] is that one walk: missing values report
//! `"<flag> requires a value"`, unparsable values report
//! `"<flag> must be <expected>"`, and unknown flags report
//! `"unknown <context> flag '<flag>'"` (or `"unknown flag '<flag>'"` for the
//! tables, which have no subcommand word).

use raw_machine::MAX_TILES;
use std::str::FromStr;

/// Cursor over a subcommand's argument list.
///
/// Usage pattern:
///
/// ```
/// # use raw_bench::args::FlagParser;
/// let args: Vec<String> = vec!["--tiles".into(), "16".into(), "--quick".into()];
/// let mut tiles: u32 = 4;
/// let mut quick = false;
/// let mut p = FlagParser::new("sim", &args);
/// while let Some(flag) = p.next_flag() {
///     match flag {
///         "--tiles" => tiles = p.value_parsed("an integer")?,
///         "--quick" => quick = true,
///         _ => return Err(p.unknown()),
///     }
/// }
/// assert_eq!((tiles, quick), (16, true));
/// # Ok::<(), String>(())
/// ```
pub struct FlagParser<'a> {
    /// Subcommand name used in "unknown … flag" errors; empty for the
    /// paper tables' short form.
    context: &'a str,
    args: &'a [String],
    /// Index of the next unread argument.
    i: usize,
    /// Index of the flag most recently returned by [`Self::next_flag`].
    flag: usize,
}

impl<'a> FlagParser<'a> {
    /// Builds a parser over the arguments following the subcommand word.
    pub fn new(context: &'a str, args: &'a [String]) -> Self {
        FlagParser {
            context,
            args,
            i: 0,
            flag: 0,
        }
    }

    /// Advances to the next flag, or `None` when the list is exhausted.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        let flag = self.args.get(self.i)?;
        self.flag = self.i;
        self.i += 1;
        Some(flag.as_str())
    }

    /// Consumes the current flag's value argument.
    ///
    /// # Errors
    ///
    /// `"<flag> requires a value"` when the list ends before the value.
    pub fn value(&mut self) -> Result<&'a String, String> {
        let v = self
            .args
            .get(self.i)
            .ok_or_else(|| format!("{} requires a value", self.args[self.flag]))?;
        self.i += 1;
        Ok(v)
    }

    /// Consumes and parses the current flag's value argument.
    ///
    /// # Errors
    ///
    /// `"<flag> requires a value"` on a missing value, or
    /// `"<flag> must be <expected>"` when parsing fails (e.g. `expected =
    /// "an integer"`).
    pub fn value_parsed<T: FromStr>(&mut self, expected: &str) -> Result<T, String> {
        let flag = &self.args[self.flag];
        self.value()?
            .parse()
            .map_err(|_| format!("{flag} must be {expected}"))
    }

    /// Error message for an unrecognised flag. Contexts yield
    /// `"unknown trace flag '--x'"`; an empty context yields
    /// `"unknown flag '--x'"`.
    pub fn unknown(&self) -> String {
        let flag = &self.args[self.flag];
        if self.context.is_empty() {
            format!("unknown flag '{flag}'")
        } else {
            format!("unknown {} flag '{flag}'", self.context)
        }
    }
}

/// Validates the mesh-size constraint shared by every sizing flag: a power
/// of two, at most [`MAX_TILES`] (a dynamic-network header names a tile in
/// 11 bits).
///
/// # Errors
///
/// `"machine size <n> is not a power of two"` or `"machine size <n>
/// exceeds the 2048-tile maximum"`.
pub fn require_power_of_two(tiles: u32) -> Result<(), String> {
    if !tiles.is_power_of_two() {
        Err(format!("machine size {tiles} is not a power of two"))
    } else if tiles > MAX_TILES {
        Err(format!(
            "machine size {tiles} exceeds the {MAX_TILES}-tile maximum"
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// A representative subcommand parse loop, reused by the tests below.
    fn demo_parse(context: &str, args: &[String]) -> Result<(u32, Option<String>, bool), String> {
        let (mut tiles, mut bench, mut quick) = (4u32, None, false);
        let mut p = FlagParser::new(context, args);
        while let Some(flag) = p.next_flag() {
            match flag {
                "--tiles" => tiles = p.value_parsed("an integer")?,
                "--bench" => bench = Some(p.value()?.clone()),
                "--quick" => quick = true,
                _ => return Err(p.unknown()),
            }
        }
        require_power_of_two(tiles)?;
        Ok((tiles, bench, quick))
    }

    #[test]
    fn walks_switches_and_valued_flags() {
        let args = s(&["--bench", "mxm", "--quick", "--tiles", "16"]);
        assert_eq!(
            demo_parse("demo", &args).unwrap(),
            (16, Some("mxm".to_string()), true)
        );
        assert_eq!(demo_parse("demo", &[]).unwrap(), (4, None, false));
    }

    #[test]
    fn missing_value_names_the_flag() {
        let err = demo_parse("demo", &s(&["--bench"])).unwrap_err();
        assert_eq!(err, "--bench requires a value");
        let err = demo_parse("demo", &s(&["--quick", "--tiles"])).unwrap_err();
        assert_eq!(err, "--tiles requires a value");
    }

    #[test]
    fn bad_value_names_the_flag_and_expectation() {
        let err = demo_parse("demo", &s(&["--tiles", "many"])).unwrap_err();
        assert_eq!(err, "--tiles must be an integer");
    }

    #[test]
    fn unknown_flag_carries_the_context() {
        let err = demo_parse("demo", &s(&["--frobnicate"])).unwrap_err();
        assert_eq!(err, "unknown demo flag '--frobnicate'");
        let err = demo_parse("", &s(&["--frobnicate"])).unwrap_err();
        assert_eq!(err, "unknown flag '--frobnicate'");
    }

    #[test]
    fn value_is_never_mistaken_for_a_flag() {
        // "--quick" as a *value* must be consumed, not dispatched.
        let args = s(&["--bench", "--quick", "--tiles", "8"]);
        assert_eq!(
            demo_parse("demo", &args).unwrap(),
            (8, Some("--quick".to_string()), false)
        );
    }

    #[test]
    fn power_of_two_validation() {
        assert!(require_power_of_two(8).is_ok());
        let err = require_power_of_two(3).unwrap_err();
        assert_eq!(err, "machine size 3 is not a power of two");
    }

    #[test]
    fn a_mesh_past_max_tiles_is_a_usage_error() {
        // Past 2048 tiles the dynamic network's header fields truncate tile
        // indices and messages eject at the wrong tile.
        assert!(require_power_of_two(MAX_TILES).is_ok());
        let err = require_power_of_two(4096).unwrap_err();
        assert_eq!(err, "machine size 4096 exceeds the 2048-tile maximum");
        let err = demo_parse("demo", &s(&["--tiles", "4096"])).unwrap_err();
        assert_eq!(err, "machine size 4096 exceeds the 2048-tile maximum");
    }
}
