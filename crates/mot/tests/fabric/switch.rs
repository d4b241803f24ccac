//! The modified routing switch cell of Fig. 3(a) as an instance with
//! state: the [`RoutingMode`] its `ctr` pair selects. The crate computes
//! routes from the modes directly; this cell is what the structural
//! fabric walks.

use mot3d_mot::switch::{Port, RoutingMode};

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
            RoutingMode::Conventional => Some(Port::from_bit(addr_bit)),
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
