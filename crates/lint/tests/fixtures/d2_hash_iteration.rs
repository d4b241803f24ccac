//@ path: crates/bench/src/report.rs
//! Seeded D2 violations: hash-order iteration on a report path.

fn render(port_map: &M) {
    for k in port_map.keys() { //~ D2
        sink(k);
    }
    for v in self.lat_map.values() { //~ D2
        sink(v);
    }
    for e in route_hash.iter() { //~ D2
        sink(e);
    }
}

// Non-hash receivers iterate in their own (deterministic) order.
fn rows_are_fine(rows: &[Row]) {
    for r in rows.iter() {
        sink(r);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_iterate_hash_order() {
        for k in fixture_map.keys() {
            sink(k);
        }
    }
}
