//! Packets and flit accounting.
//!
//! The packet-switched baselines move memory transactions as multi-flit
//! packets over 64-bit links: a head flit carries address/command, data
//! payloads add one flit per 64 data bits. A 32 B line is 4 data flits, so
//!
//! | transaction     | flits |
//! |-----------------|-------|
//! | read request    | 1     |
//! | write request   | 5     |
//! | read response   | 5     |
//! | write ack       | 1     |
//!
//! This is the hop-by-hop serialisation cost that the circuit-switched
//! MoT avoids — the source of the latency gap in Fig. 6.

use mot3d_mot::traits::{MemRequest, MemResponse, ReqKind};

/// Link/flit width in bits.
pub const FLIT_BITS: usize = 64;
/// Data flits in one 32 B line.
pub const LINE_FLITS: usize = 4;

/// Payload carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A core→bank request.
    Request(MemRequest),
    /// A bank→core response.
    Response(MemResponse),
}

impl Payload {
    /// Number of flits this payload serialises into.
    pub fn flits(&self) -> u64 {
        match self {
            Payload::Request(r) => match r.kind {
                ReqKind::ReadLine => 1,
                ReqKind::WriteLine => 1 + LINE_FLITS as u64,
            },
            Payload::Response(r) => match r.kind {
                ReqKind::ReadLine => 1 + LINE_FLITS as u64,
                ReqKind::WriteLine => 1,
            },
        }
    }
}

/// A packet in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// What it carries.
    pub payload: Payload,
    /// Cycle it was injected.
    pub injected_at: u64,
    /// Router hops traversed so far (for energy/stats).
    pub hops: u32,
}

impl Packet {
    /// Wraps a request.
    pub fn request(injected_at: u64, req: MemRequest) -> Self {
        Packet {
            payload: Payload::Request(req),
            injected_at,
            hops: 0,
        }
    }

    /// Wraps a response.
    pub fn response(injected_at: u64, resp: MemResponse) -> Self {
        Packet {
            payload: Payload::Response(resp),
            injected_at,
            hops: 0,
        }
    }

    /// Serialisation length in flits.
    pub fn flits(&self) -> u64 {
        self.payload.flits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_req() -> MemRequest {
        MemRequest {
            core: 0,
            home_bank: 0,
            kind: ReqKind::ReadLine,
            tag: 0,
        }
    }

    #[test]
    fn flit_counts_match_the_table() {
        let mut wr = read_req();
        wr.kind = ReqKind::WriteLine;
        assert_eq!(Payload::Request(read_req()).flits(), 1);
        assert_eq!(Payload::Request(wr).flits(), 5);
        let rd_resp = MemResponse {
            core: 0,
            bank: 0,
            kind: ReqKind::ReadLine,
            tag: 0,
        };
        let wr_resp = MemResponse {
            kind: ReqKind::WriteLine,
            ..rd_resp
        };
        assert_eq!(Payload::Response(rd_resp).flits(), 5);
        assert_eq!(Payload::Response(wr_resp).flits(), 1);
    }

    #[test]
    fn packet_records_injection_time() {
        let p = Packet::request(17, read_req());
        assert_eq!(p.injected_at, 17);
        assert_eq!(p.hops, 0);
        assert_eq!(p.flits(), 1);
    }
}
