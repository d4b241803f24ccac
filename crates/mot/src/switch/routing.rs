//! The modified (reconfigurable) routing switch — the paper's central
//! circuit contribution (Fig. 3).
//!
//! A classic MoT routing switch (Fig. 2(b)) is a MUX + DEMUX pair whose
//! select is one bit of the packet's destination bank index. The modified
//! switch adds one more multiplexer (the gray MUX of Fig. 3(a)) on the
//! select path, controlled by two signals `ctr_1 ctr_0` (Fig. 3(b)):
//!
//! | `ctr_1` | `ctr_0` | behaviour                              |
//! |---------|---------|----------------------------------------|
//! | 0       | 0       | conventional: route by the address bit |
//! | 0       | 1       | user-defined: always port 0            |
//! | 1       | 0       | user-defined: always port 1            |
//! | 1       | 1       | switch (and its subtree) power-gated   |
//!
//! In user-defined mode the address bit is *ignored*, which is exactly
//! what folds the gated half of a bank subtree onto the live half while
//! leaving the cache addressing untouched (Fig. 4).
//!
//! [`RoutingMode`] is one row of that table; the control plane
//! ([`crate::reconfig::MotConfiguration::routing_mode`]) assigns one to
//! every switch, and routes follow from the modes directly.

use std::fmt;

/// Which downstream port a routing decision selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Downstream port 0 (address bit 0 in conventional mode).
    Port0,
    /// Downstream port 1 (address bit 1 in conventional mode).
    Port1,
}

impl Port {
    /// The bit value this port represents.
    #[inline]
    pub fn bit(self) -> bool {
        matches!(self, Port::Port1)
    }
}

/// Operating mode of a modified routing switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingMode {
    /// Route by the destination-address bit (Fig. 3(b), `ctr = 00`).
    #[default]
    Conventional,
    /// Ignore the address bit and always take the given port
    /// (`ctr = 01` / `ctr = 10`).
    UserDefined(Port),
    /// Power-gated (`ctr = 11`): the switch must not see traffic.
    Off,
}

impl fmt::Display for RoutingMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingMode::Conventional => write!(f, "conventional"),
            RoutingMode::UserDefined(p) => write!(f, "user-defined({p:?})"),
            RoutingMode::Off => write!(f, "off"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_bit_round_trip() {
        assert!(!Port::Port0.bit());
        assert!(Port::Port1.bit());
    }
}
