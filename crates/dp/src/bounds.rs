//! Action bounds — Table 1 of the paper.
//!
//! Differential privacy is applied to *network actions within 24 hours*
//! rather than to users directly (§2.2, §3.2). Each protected action has
//! a daily bound derived from a defining activity (web browsing with Tor
//! Browser, Ricochet chat, or operating an onionsite). The sensitivity of
//! a counter is the number of counter units one user's bounded activity
//! can change, which is what the noise mechanisms are calibrated against.

/// A protected user action, one per row of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Action {
    /// Connect to a (web) domain through an exit circuit.
    ConnectToDomain,
    /// Send or receive exit data (bytes).
    ExitData,
    /// Connect to Tor from a new IP address (first day).
    NewIpDay1,
    /// Connect to Tor from a new IP address (per day, 2+ day windows).
    NewIpMultiDay,
    /// Create a TCP connection to Tor (to a guard).
    TcpConnectionToGuard,
    /// Create a circuit through an entry guard.
    CircuitThroughGuard,
    /// Send or receive entry data (bytes).
    EntryData,
    /// Upload an onion-service descriptor.
    UploadDescriptor,
    /// Upload a descriptor of a *new* onion address.
    UploadNewOnionAddress,
    /// Fetch an onion-service descriptor.
    FetchDescriptor,
    /// Create a rendezvous connection.
    RendezvousConnection,
    /// Send or receive rendezvous data (bytes).
    RendezvousData,
}

/// The activity class that defines (maximizes) an action bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefiningActivity {
    /// Web browsing with Tor Browser.
    Web,
    /// Ricochet-style P2P chat over onion services.
    Chat,
    /// Operating a web server as an onionsite.
    Onionsite,
    /// Web or onionsite (both reach the bound).
    WebOrOnionsite,
    /// Applies to all activities; no single defining one.
    NotApplicable,
}

/// One row of Table 1.
#[derive(Clone, Copy, Debug)]
pub struct ActionBound {
    /// The protected action.
    pub action: Action,
    /// Maximum protected amount per 24 hours (count or bytes).
    pub daily_bound: u64,
    /// The activity that attains the bound.
    pub defining: DefiningActivity,
}

/// MiB multiplier for the byte-valued bounds.
const MB: u64 = 1 << 20;

/// The paper's Table 1, verbatim.
pub fn paper_action_bounds() -> Vec<ActionBound> {
    use Action::*;
    use DefiningActivity::*;
    vec![
        ActionBound {
            action: ConnectToDomain,
            daily_bound: 20,
            defining: Web,
        },
        ActionBound {
            action: ExitData,
            daily_bound: 400 * MB,
            defining: Web,
        },
        ActionBound {
            action: NewIpDay1,
            daily_bound: 4,
            defining: NotApplicable,
        },
        ActionBound {
            action: NewIpMultiDay,
            daily_bound: 3,
            defining: NotApplicable,
        },
        ActionBound {
            action: TcpConnectionToGuard,
            daily_bound: 12,
            defining: NotApplicable,
        },
        ActionBound {
            action: CircuitThroughGuard,
            daily_bound: 651,
            defining: Chat,
        },
        ActionBound {
            action: EntryData,
            daily_bound: 407 * MB,
            defining: Web,
        },
        ActionBound {
            action: UploadDescriptor,
            daily_bound: 450,
            defining: Onionsite,
        },
        ActionBound {
            action: UploadNewOnionAddress,
            daily_bound: 3,
            defining: Onionsite,
        },
        ActionBound {
            action: FetchDescriptor,
            daily_bound: 30,
            defining: Onionsite,
        },
        ActionBound {
            action: RendezvousConnection,
            daily_bound: 180,
            defining: Chat,
        },
        ActionBound {
            action: RendezvousData,
            daily_bound: 400 * MB,
            defining: WebOrOnionsite,
        },
    ]
}

/// Looks up the daily bound for an action.
pub fn bound_for(action: Action) -> u64 {
    paper_action_bounds()
        .into_iter()
        .find(|b| b.action == action)
        .expect("every action has a Table 1 row")
        .daily_bound
}

/// The sensitivity of a published statistic: how much one protected
/// user's bounded 24h activity can change it.
///
/// For a single counter counting occurrences of `action`, the
/// sensitivity is the action bound itself. For a histogram whose bins
/// partition occurrences of `action`, a user's bounded activity still
/// changes the L1 total by at most the bound, but a *single* bin by at
/// most the bound too — PrivCount noises each bin for the full
/// sensitivity (bins are independent, §2.3).
#[derive(Clone, Copy, Debug)]
pub struct Sensitivity {
    /// The protected action driving this statistic.
    pub action: Action,
    /// Counter units per action unit (e.g. 2 circuits at the rendezvous
    /// point per rendezvous connection, or 1 for plain counts).
    pub units_per_action: f64,
    /// Number of days of activity covered by the measurement (multi-day
    /// PSC measurements protect each day's bound).
    pub days: u64,
}

impl Sensitivity {
    /// Plain one-day, one-unit-per-action sensitivity.
    pub fn of(action: Action) -> Sensitivity {
        Sensitivity {
            action,
            units_per_action: 1.0,
            days: 1,
        }
    }

    /// Sensitivity of a multi-day measurement.
    pub fn over_days(action: Action, days: u64) -> Sensitivity {
        Sensitivity {
            action,
            units_per_action: 1.0,
            days,
        }
    }

    /// The numeric sensitivity Δ used for calibration.
    pub fn value(&self) -> f64 {
        let per_day = if self.days > 1 && self.action == Action::NewIpDay1 {
            // Multi-day IP measurements use the 2+ day bound (Table 1).
            bound_for(Action::NewIpMultiDay)
        } else {
            bound_for(self.action)
        };
        per_day as f64 * self.units_per_action * self.days as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_complete() {
        let rows = paper_action_bounds();
        assert_eq!(rows.len(), 12);
        // Every Action variant appears exactly once.
        let mut actions: Vec<Action> = rows.iter().map(|r| r.action).collect();
        actions.sort();
        actions.dedup();
        assert_eq!(actions.len(), 12);
    }

    #[test]
    fn paper_values_pinned() {
        assert_eq!(bound_for(Action::ConnectToDomain), 20);
        assert_eq!(bound_for(Action::ExitData), 400 << 20);
        assert_eq!(bound_for(Action::NewIpDay1), 4);
        assert_eq!(bound_for(Action::NewIpMultiDay), 3);
        assert_eq!(bound_for(Action::TcpConnectionToGuard), 12);
        assert_eq!(bound_for(Action::CircuitThroughGuard), 651);
        assert_eq!(bound_for(Action::EntryData), 407 << 20);
        assert_eq!(bound_for(Action::UploadDescriptor), 450);
        assert_eq!(bound_for(Action::UploadNewOnionAddress), 3);
        assert_eq!(bound_for(Action::FetchDescriptor), 30);
        assert_eq!(bound_for(Action::RendezvousConnection), 180);
        assert_eq!(bound_for(Action::RendezvousData), 400 << 20);
    }

    #[test]
    fn defining_activities_match_paper() {
        for row in paper_action_bounds() {
            let expect = match row.action {
                Action::ConnectToDomain | Action::ExitData | Action::EntryData => {
                    DefiningActivity::Web
                }
                Action::CircuitThroughGuard | Action::RendezvousConnection => {
                    DefiningActivity::Chat
                }
                Action::UploadDescriptor
                | Action::UploadNewOnionAddress
                | Action::FetchDescriptor => DefiningActivity::Onionsite,
                Action::RendezvousData => DefiningActivity::WebOrOnionsite,
                _ => DefiningActivity::NotApplicable,
            };
            assert_eq!(row.defining, expect, "{:?}", row.action);
        }
    }

    #[test]
    fn sensitivity_scaling() {
        // A rendezvous connection creates 2 circuits at the RP.
        let s = Sensitivity {
            units_per_action: 2.0,
            ..Sensitivity::of(Action::RendezvousConnection)
        };
        assert_eq!(s.value(), 360.0);
        // Plain count.
        assert_eq!(Sensitivity::of(Action::ConnectToDomain).value(), 20.0);
    }

    #[test]
    fn multiday_ip_sensitivity_uses_multiday_bound() {
        // 1-day: 4 IPs; 4-day: 3 IPs per day × 4 days = 12.
        assert_eq!(Sensitivity::of(Action::NewIpDay1).value(), 4.0);
        assert_eq!(Sensitivity::over_days(Action::NewIpDay1, 4).value(), 12.0);
    }
}
