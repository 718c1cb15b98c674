//! Structured progress events for the binaries' stderr.
//!
//! The `experiments` and `campaign` binaries used to `eprintln!`
//! free-form progress lines; those lines now flow through a [`Sink`] as
//! [`Event`]s, which gives the CLIs `-q`/`-v` for free while keeping
//! the default stderr output byte-identical (`# {text}` per event —
//! the format the smoke targets' operators are used to reading).
//!
//! Progress is presentation, not measurement: events go to stderr and
//! are never part of a report render or the metrics registry.

/// How much of the event stream reaches stderr.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Verbosity {
    /// `-q`: nothing.
    Quiet,
    /// Default: one `# {text}` line per event.
    #[default]
    Normal,
    /// `-v`: the `Normal` line plus `#   key=value` detail lines and
    /// the event name.
    Verbose,
}

/// One progress event: a stable machine name, a human line, and
/// optional `key=value` details (shown only at `-v`).
#[derive(Clone, Debug)]
pub struct Event {
    /// Stable dotted identifier, e.g. `campaign.start`.
    pub name: &'static str,
    /// The human-readable line (printed as `# {text}`).
    pub text: String,
    /// Detail fields, shown only under [`Verbosity::Verbose`].
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// A detail-free event.
    pub fn new(name: &'static str, text: impl Into<String>) -> Event {
        Event {
            name,
            text: text.into(),
            fields: Vec::new(),
        }
    }

    /// Attaches a `key=value` detail field.
    pub fn field(mut self, key: &str, value: impl ToString) -> Event {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }
}

/// A stderr event writer with a verbosity filter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sink {
    verbosity: Verbosity,
}

impl Sink {
    /// A sink at the given verbosity.
    pub fn new(verbosity: Verbosity) -> Sink {
        Sink { verbosity }
    }

    /// Emits `event` to stderr according to the verbosity filter.
    pub fn emit(&self, event: &Event) {
        match self.verbosity {
            Verbosity::Quiet => {}
            Verbosity::Normal => eprintln!("# {}", event.text),
            Verbosity::Verbose => {
                eprintln!("# {} [{}]", event.text, event.name);
                for (k, v) in &event.fields {
                    eprintln!("#   {k}={v}");
                }
            }
        }
    }

    /// Convenience: emit a detail-free event.
    pub fn say(&self, name: &'static str, text: impl Into<String>) {
        self.emit(&Event::new(name, text));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_build_with_fields() {
        let ev = Event::new("campaign.start", "campaign: 17 days")
            .field("days", 17)
            .field("seed", 2018);
        assert_eq!(ev.name, "campaign.start");
        assert_eq!(ev.fields.len(), 2);
        assert_eq!(ev.fields[1], ("seed".to_string(), "2018".to_string()));
    }

    #[test]
    fn default_verbosity_is_normal() {
        assert_eq!(Sink::default().verbosity, Verbosity::Normal);
    }
}
