//! The modified routing switch cell of Fig. 3(a) as an instance with
//! state: the [`RoutingMode`] its `ctr` pair selects. The crate computes
//! routes from the modes directly; this cell is what the structural
//! fabric walks, and [`from_ctr`]/[`to_ctr`] are the `ctr` wires it is
//! programmed over.

use mot3d_mot::switch::{Port, RoutingMode};

/// Decodes the `(ctr_1, ctr_0)` control pair of Fig. 3(b).
pub fn from_ctr(ctr_1: bool, ctr_0: bool) -> RoutingMode {
    match (ctr_1, ctr_0) {
        (false, false) => RoutingMode::Conventional,
        (false, true) => RoutingMode::UserDefined(Port::Port0),
        (true, false) => RoutingMode::UserDefined(Port::Port1),
        (true, true) => RoutingMode::Off,
    }
}

/// Encodes a mode as its `(ctr_1, ctr_0)` control pair.
pub fn to_ctr(mode: RoutingMode) -> (bool, bool) {
    match mode {
        RoutingMode::Conventional => (false, false),
        RoutingMode::UserDefined(Port::Port0) => (false, true),
        RoutingMode::UserDefined(Port::Port1) => (true, false),
        RoutingMode::Off => (true, true),
    }
}

/// One modified routing switch instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoutingSwitch {
    mode: RoutingMode,
}

impl RoutingSwitch {
    /// A switch in conventional mode (reset state).
    pub fn new() -> Self {
        RoutingSwitch::default()
    }

    /// Current mode.
    pub fn mode(&self) -> RoutingMode {
        self.mode
    }

    /// Reconfigures the switch (drives its `ctr` signals).
    pub fn set_mode(&mut self, mode: RoutingMode) {
        self.mode = mode;
    }

    /// Routes a packet whose relevant destination-address bit is
    /// `addr_bit`. Returns `None` if the switch is power-gated (a routing
    /// bug in the control plane — callers assert on it).
    pub fn route(&self, addr_bit: bool) -> Option<Port> {
        match self.mode {
            RoutingMode::Conventional => Some(if addr_bit { Port::Port1 } else { Port::Port0 }),
            RoutingMode::UserDefined(port) => Some(port),
            RoutingMode::Off => None,
        }
    }

    /// Whether the switch is powered.
    pub fn is_powered(&self) -> bool {
        self.mode != RoutingMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctr_truth_table_round_trips() {
        // Fig. 3(b): all four control combinations decode and re-encode.
        for ctr in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(to_ctr(from_ctr(ctr.0, ctr.1)), ctr);
        }
        assert_eq!(from_ctr(false, false), RoutingMode::Conventional);
        assert_eq!(from_ctr(false, true), RoutingMode::UserDefined(Port::Port0));
        assert_eq!(from_ctr(true, false), RoutingMode::UserDefined(Port::Port1));
        assert_eq!(from_ctr(true, true), RoutingMode::Off);
    }

    #[test]
    fn conventional_follows_address_bit() {
        let sw = RoutingSwitch::new();
        assert_eq!(sw.route(false), Some(Port::Port0));
        assert_eq!(sw.route(true), Some(Port::Port1));
    }

    #[test]
    fn user_defined_ignores_address_bit() {
        let mut sw = RoutingSwitch::new();
        sw.set_mode(RoutingMode::UserDefined(Port::Port1));
        assert_eq!(sw.route(false), Some(Port::Port1));
        assert_eq!(sw.route(true), Some(Port::Port1));
        sw.set_mode(RoutingMode::UserDefined(Port::Port0));
        assert_eq!(sw.route(false), Some(Port::Port0));
        assert_eq!(sw.route(true), Some(Port::Port0));
    }

    #[test]
    fn off_switch_routes_nothing() {
        let mut sw = RoutingSwitch::new();
        sw.set_mode(RoutingMode::Off);
        assert_eq!(sw.route(false), None);
        assert_eq!(sw.route(true), None);
        assert!(!sw.is_powered());
    }

    #[test]
    fn default_mode_is_conventional() {
        assert_eq!(RoutingSwitch::default().mode(), RoutingMode::Conventional);
    }

    #[test]
    fn set_mode_overrides_the_address_bit() {
        let mut sw = RoutingSwitch::new();
        assert_eq!(sw.route(true), Some(Port::Port1)); // conventional
        sw.set_mode(RoutingMode::UserDefined(Port::Port0));
        assert_eq!(sw.route(true), Some(Port::Port0)); // address bit ignored
    }
}
