// Fixture: registry gaps — a scenario event that `apply` never
// schedules and `family` lumps into a wildcard (so the coverage matrix
// never gets its row), a link fault that `cleared` and `family` both
// leave to a wildcard (a window with no closer and no row), plus a
// violation that `kind` conflates and the `Display` impl renders
// through a wildcard. All exactly the rot the registry rules exist to
// catch.

pub enum ScenarioEvent {
    Crash { pid: u64 },
    Restart { pid: u64 },
    Quake { magnitude: f64 },
    Link { fault: LinkFault },
}

pub enum LinkFault {
    Cut,
    Storm { p: f64 },
}

impl LinkFault {
    pub fn cleared(&self) -> LinkFault {
        match self {
            LinkFault::Cut => LinkFault::Cut,
            _ => LinkFault::Cut,
        }
    }
}

impl Scenario {
    pub fn apply(&self, net: &mut Net) {
        match self.event {
            ScenarioEvent::Crash { pid } => net.crash(pid),
            ScenarioEvent::Restart { pid } => net.restart(pid),
            ScenarioEvent::Link { fault } => net.fault(fault),
            _ => {}
        }
    }

    pub fn heals(&self) -> bool {
        matches!(
            self.event,
            ScenarioEvent::Restart { .. }
                | ScenarioEvent::Quake { .. }
                | ScenarioEvent::Crash { .. }
                | ScenarioEvent::Link { .. }
        )
    }

    pub fn horizon(&self) -> u64 {
        match self.event {
            ScenarioEvent::Crash { .. } => 0,
            ScenarioEvent::Restart { .. } => 1,
            ScenarioEvent::Quake { .. } => 2,
            ScenarioEvent::Link { .. } => 3,
        }
    }

    pub fn family(&self) -> &'static str {
        match self.event {
            ScenarioEvent::Crash { .. } => "crash",
            ScenarioEvent::Restart { .. } => "restart",
            ScenarioEvent::Link { fault: LinkFault::Cut } => "cut",
            _ => "other",
        }
    }
}

pub enum Violation {
    Divergence { pid: u64 },
    Stall,
}

impl Violation {
    pub fn process(&self) -> Option<u64> {
        match self {
            Violation::Divergence { pid } => Some(*pid),
            Violation::Stall => None,
        }
    }

    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Divergence { .. } => "Divergence",
            _ => "Other",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Divergence { pid } => write!(f, "divergence at {pid}"),
            _ => write!(f, "violation"),
        }
    }
}
