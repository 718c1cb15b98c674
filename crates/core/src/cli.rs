//! The command-line front-end the `experiments` and `campaign` binaries
//! share: one parser for the flags both take (`--scale --seed --fabric
//! --csv --json --trace -q/-v --list --help`), the recorder/sink set-up
//! behind them, and the `--json`/`--trace` export tail.
//!
//! Command-line input is checked where it enters: a missing, malformed
//! or out-of-range value, or an unknown argument, prints one line
//! naming the problem plus the usage line and exits 2 — never a panic;
//! a failed export names its path and exits 1.

use pm_net::FabricChoice;
use pm_obs::{Event, Recorder, Sink, Verbosity};
use std::fmt::Display;
use std::str::FromStr;

/// The parsed shared flags, with the observability they configure.
pub struct Cli {
    /// `--scale`, checked to lie in (0, 1].
    pub scale: f64,
    /// `--seed`.
    pub seed: u64,
    /// `--fabric`.
    pub fabric: FabricChoice,
    /// `--csv`.
    pub csv: bool,
    /// `--list`.
    pub list: bool,
    /// Progress-event sink at the `-q`/`-v` verbosity.
    pub sink: Sink,
    /// Recorder; the profiling plane is live iff `--trace` was given.
    pub recorder: Recorder,
    /// The binary's own flags as `(flag, raw value)`, in command-line
    /// order; [`flag_value`] turns each into its typed value.
    pub own: Vec<(String, String)>,
    json: Option<String>,
    trace: Option<String>,
}

/// Prints `problem` and the usage line, then exits 2.
pub fn usage_exit(usage: &str, problem: impl Display) -> ! {
    eprintln!("{problem}\n{usage}");
    std::process::exit(2)
}

/// Parses `flag`'s value and checks it with `ok`; otherwise reports
/// "`flag` takes `expects`" as a usage error.
pub fn flag_value<T: FromStr>(
    usage: &str,
    flag: &str,
    raw: &str,
    expects: &str,
    ok: impl Fn(&T) -> bool,
) -> T {
    match raw.parse() {
        Ok(value) if ok(&value) => value,
        _ => usage_exit(usage, format_args!("{flag} takes {expects}")),
    }
}

impl Cli {
    /// Parses the process arguments. `own_flags` are the calling
    /// binary's additional flags, each taking one value.
    pub fn parse(usage: &str, default_scale: f64, own_flags: &[&str]) -> Cli {
        let mut cli = Cli {
            scale: default_scale,
            seed: 2018,
            fabric: FabricChoice::default(),
            csv: false,
            list: false,
            sink: Sink::new(Verbosity::Normal),
            recorder: Recorder::new(),
            own: Vec::new(),
            json: None,
            trace: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage_exit(usage, format_args!("{flag} takes a value")))
            };
            match flag.as_str() {
                "--scale" => {
                    let in_range = |s: &f64| *s > 0.0 && *s <= 1.0;
                    cli.scale = flag_value(usage, &flag, &value(), "a float in (0, 1]", in_range);
                }
                "--seed" => cli.seed = flag_value(usage, &flag, &value(), "an integer", |_| true),
                "--fabric" => {
                    let name = value();
                    cli.fabric = FabricChoice::parse(&name).unwrap_or_else(|| {
                        usage_exit(
                            usage,
                            format_args!(
                                "unknown fabric '{name}'; known: per-link, \
                                 wire[:latency_ms[,bw_kbps]]"
                            ),
                        )
                    });
                }
                "--csv" => cli.csv = true,
                "--json" => cli.json = Some(value()),
                "--trace" => cli.trace = Some(value()),
                "-q" | "--quiet" => cli.sink = Sink::new(Verbosity::Quiet),
                "-v" | "--verbose" => cli.sink = Sink::new(Verbosity::Verbose),
                "--list" => cli.list = true,
                "--help" | "-h" => {
                    eprintln!("{usage}");
                    std::process::exit(0);
                }
                own if own_flags.contains(&own) => {
                    let raw = value();
                    cli.own.push((flag, raw));
                }
                other => usage_exit(usage, format_args!("unknown argument: {other}")),
            }
        }
        if cli.trace.is_some() {
            cli.recorder = Recorder::with_profiling();
        }
        cli
    }

    /// The export tail: writes the `--json` document and the `--trace`
    /// file when asked for, announcing each under the given event name.
    pub fn export(&self, wrote: &'static str, traced: &'static str, json: impl FnOnce() -> String) {
        let check = |path: &str, written: std::io::Result<()>| {
            if let Err(err) = written {
                eprintln!("cannot write {path}: {err}");
                std::process::exit(1);
            }
        };
        if let Some(path) = &self.json {
            check(path, std::fs::write(path, json()));
            self.sink
                .emit(&Event::new(wrote, format!("wrote {path}")).field("path", path));
        }
        if let Some(path) = &self.trace {
            check(path, self.recorder.write_trace(std::path::Path::new(path)));
            self.sink
                .emit(&Event::new(traced, format!("wrote trace {path}")).field("path", path));
        }
    }
}
