//! Textual grammar for the experiment-plan axes.
//!
//! Every way a plan crosses a process boundary — `mot3d sweep` command
//! lines, `mot3d submit` wire requests, and the result cache's
//! content-addressed keys — spells axis values in the same compact
//! tokens. This module is the single source of truth for that grammar:
//! a parser and a canonical formatter per axis, with
//! `parse(format(v)) == v` for every value (pinned by tests).
//!
//! | axis | tokens |
//! |------|--------|
//! | benchmark | `cholesky`, `fft`, …, `water-nsquared`, or `all` |
//! | interconnect | `mot3d`, `mesh`, `bus-mesh`, `bus-tree`, or `all` |
//! | power state | `full`, `pcX-mbY`, or `all` (the paper's four) |
//! | DRAM | `200ns`, `63ns`, `42ns`, or `all` |
//! | page policy | `flat`, `open`, `both` |
//!
//! Parsers accept comma-separated lists, surrounding whitespace, any
//! letter case, and a few historical aliases (`mot`, `ddr3`,
//! `wide-io`, …); formatters always emit the canonical token.

use crate::experiments;
use mot3d_mem::dram::DramKind;
use mot3d_mot::PowerState;
use mot3d_noc::NocTopologyKind;
use mot3d_sim::InterconnectChoice;
use mot3d_workloads::SplashBenchmark;
use std::fmt;

fn split_list(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// Parses a benchmark list (`fft,radix` or `all`).
///
/// # Errors
///
/// Returns a human-readable description of the first unknown name.
pub fn parse_benches(raw: &str) -> Result<Vec<SplashBenchmark>, String> {
    if raw.trim().eq_ignore_ascii_case("all") {
        return Ok(SplashBenchmark::all().to_vec());
    }
    split_list(raw)
        .map(|name| {
            SplashBenchmark::all()
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown benchmark {name:?} (try --bench all)"))
        })
        .collect()
}

/// Parses an interconnect list (`mot3d,mesh` or `all` = Fig. 6's four).
///
/// # Errors
///
/// Returns a human-readable description of the first unknown name.
pub fn parse_interconnects(raw: &str) -> Result<Vec<InterconnectChoice>, String> {
    if raw.trim().eq_ignore_ascii_case("all") {
        return Ok(experiments::fig6_interconnects().to_vec());
    }
    split_list(raw)
        .map(|name| match name.to_ascii_lowercase().as_str() {
            "mot" | "mot3d" | "3d-mot" => Ok(InterconnectChoice::Mot),
            "mesh" | "mesh3d" | "3d-mesh" => Ok(InterconnectChoice::Noc(NocTopologyKind::Mesh3d)),
            "bus-mesh" | "busmesh" => Ok(InterconnectChoice::Noc(NocTopologyKind::HybridBusMesh)),
            "bus-tree" | "bustree" => Ok(InterconnectChoice::Noc(NocTopologyKind::HybridBusTree)),
            _ => Err(format!(
                "unknown interconnect {name:?} (mot3d, mesh, bus-mesh, bus-tree)"
            )),
        })
        .collect()
}

/// Parses a power-state list (`full,pc4-mb8` or `all` = the paper's
/// four states; any power-of-two `pcX-mbY` is accepted).
///
/// # Errors
///
/// Returns a human-readable description of the first invalid state.
pub fn parse_power_states(raw: &str) -> Result<Vec<PowerState>, String> {
    if raw.trim().eq_ignore_ascii_case("all") {
        return Ok(PowerState::date16_states().to_vec());
    }
    split_list(raw)
        .map(|name| {
            let lower = name.to_ascii_lowercase();
            if lower == "full" {
                return Ok(PowerState::full());
            }
            let parts = lower
                .strip_prefix("pc")
                .and_then(|rest| rest.split_once("-mb"));
            let (cores, banks) = parts.ok_or_else(|| {
                format!("unknown power state {name:?} (full or pcX-mbY, e.g. pc4-mb8)")
            })?;
            let cores: usize = cores
                .parse()
                .map_err(|_| format!("bad core count in power state {name:?}"))?;
            let banks: usize = banks
                .parse()
                .map_err(|_| format!("bad bank count in power state {name:?}"))?;
            PowerState::new(cores, banks).map_err(|e| format!("power state {name:?}: {e}"))
        })
        .collect()
}

/// Parses a DRAM-option list (`200ns,42ns` or `all`).
///
/// # Errors
///
/// Returns a human-readable description of the first unknown option.
pub fn parse_drams(raw: &str) -> Result<Vec<DramKind>, String> {
    if raw.trim().eq_ignore_ascii_case("all") {
        return Ok(vec![
            DramKind::OffChipDdr3,
            DramKind::WideIo,
            DramKind::Weis3d,
        ]);
    }
    split_list(raw)
        .map(|name| match name.to_ascii_lowercase().as_str() {
            "200ns" | "ddr3" | "off-chip" => Ok(DramKind::OffChipDdr3),
            "63ns" | "wide-io" | "wideio" => Ok(DramKind::WideIo),
            "42ns" | "weis" | "weis3d" => Ok(DramKind::Weis3d),
            _ => Err(format!("unknown DRAM option {name:?} (200ns, 63ns, 42ns)")),
        })
        .collect()
}

/// Parses the page-policy axis (`flat`, `open`, `both`).
///
/// # Errors
///
/// Returns a human-readable description of an unknown policy.
pub fn parse_pages(raw: &str) -> Result<Vec<bool>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "flat" => Ok(vec![false]),
        "open" | "open-page" => Ok(vec![true]),
        "both" | "all" => Ok(vec![false, true]),
        other => Err(format!("unknown page policy {other:?} (flat, open, both)")),
    }
}

/// Canonical token for an interconnect (`parse_interconnects` inverse).
pub fn interconnect_token(ic: InterconnectChoice) -> &'static str {
    match ic {
        InterconnectChoice::Mot => "mot3d",
        InterconnectChoice::Noc(NocTopologyKind::Mesh3d) => "mesh",
        InterconnectChoice::Noc(NocTopologyKind::HybridBusMesh) => "bus-mesh",
        InterconnectChoice::Noc(NocTopologyKind::HybridBusTree) => "bus-tree",
    }
}

/// Canonical token for a power state (`parse_power_states` inverse),
/// written where it is displayed, without an intermediate `String`.
pub fn power_state_token(state: PowerState) -> impl fmt::Display {
    PowerStateToken(state)
}

struct PowerStateToken(PowerState);

impl fmt::Display for PowerStateToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.0;
        if state == PowerState::full() {
            f.write_str("full")
        } else {
            write!(f, "pc{}-mb{}", state.active_cores(), state.active_banks())
        }
    }
}

/// Canonical token for a DRAM option (`parse_drams` inverse).
pub fn dram_token(dram: DramKind) -> &'static str {
    match dram {
        DramKind::OffChipDdr3 => "200ns",
        DramKind::WideIo => "63ns",
        DramKind::Weis3d => "42ns",
    }
}

/// Canonical token for a page policy (`parse_pages` inverse, one value).
pub fn page_token(open_page: bool) -> &'static str {
    if open_page {
        "open"
    } else {
        "flat"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benches_parse_lists_and_all() {
        assert_eq!(
            parse_benches("fft, radix").unwrap(),
            vec![SplashBenchmark::Fft, SplashBenchmark::Radix]
        );
        assert_eq!(parse_benches("all").unwrap().len(), 8);
        assert!(parse_benches("nope").is_err());
    }

    #[test]
    fn interconnect_tokens_round_trip() {
        for ic in experiments::fig6_interconnects() {
            let token = interconnect_token(ic);
            assert_eq!(parse_interconnects(token).unwrap(), vec![ic], "{token}");
        }
        assert_eq!(
            parse_interconnects("all").unwrap(),
            experiments::fig6_interconnects().to_vec()
        );
    }

    #[test]
    fn power_state_tokens_round_trip() {
        let mut states = PowerState::date16_states().to_vec();
        states.push(PowerState::new(8, 16).unwrap());
        for state in states {
            let token = power_state_token(state).to_string();
            assert_eq!(parse_power_states(&token).unwrap(), vec![state], "{token}");
        }
        assert!(parse_power_states("pc3-mb8").is_err(), "not a power of two");
        assert!(parse_power_states("turbo").is_err());
    }

    #[test]
    fn dram_tokens_round_trip() {
        for dram in [DramKind::OffChipDdr3, DramKind::WideIo, DramKind::Weis3d] {
            assert_eq!(parse_drams(dram_token(dram)).unwrap(), vec![dram]);
        }
        assert_eq!(parse_drams("all").unwrap().len(), 3);
    }

    #[test]
    fn page_tokens_round_trip() {
        for page in [false, true] {
            assert_eq!(parse_pages(page_token(page)).unwrap(), vec![page]);
        }
        assert_eq!(parse_pages("both").unwrap(), vec![false, true]);
    }
}
