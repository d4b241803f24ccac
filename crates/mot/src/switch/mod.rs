//! MoT switch cells: the modes of the modified routing switch (Fig. 3)
//! and the round-robin arbitration switch (Fig. 2(c)).

mod arbitration;
mod routing;

pub use arbitration::{Arbiter2, ArbitrationTree};
pub use routing::{Port, RoutingMode};
