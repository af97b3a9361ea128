//! Smoke tests: the cheap experiments must run end to end in quick mode.
//! (The heavier ones are exercised by the `experiments` binary and CI-style
//! release runs; running them in debug-mode unit tests would be too slow.)

#[cfg(test)]
mod tests {
    use crate::experiments;

    fn run(id: &str) {
        let table = experiments::run(id, true).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!table.rows.is_empty(), "{id} produced no rows");
        assert_eq!(table.id.to_lowercase(), id);
        // Render must not panic and should contain the id.
        assert!(table.render().contains(&table.id));
        // JSON must round-trip through the Table type.
        let back: crate::table::Table = serde_json::from_str(&table.to_json()).unwrap();
        assert_eq!(back.rows.len(), table.rows.len());
    }

    #[test]
    fn e4_resources_smoke() {
        run("e4");
    }

    #[test]
    fn e7_coulomb_smoke() {
        run("e7");
    }

    #[test]
    fn e9_agc_smoke() {
        run("e9");
    }

    #[test]
    fn e10_detectors_smoke() {
        run("e10");
    }

    #[test]
    fn e11_ablation_smoke() {
        run("e11");
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(experiments::run("e999", true).is_none());
        assert!(experiments::run("nonsense", true).is_none());
        // Retired experiments resolve to nothing, not to a stale table.
        assert!(experiments::run("e13", true).is_none());
    }

    #[test]
    fn all_ids_are_known() {
        for id in experiments::ALL {
            // Just resolve, don't run the heavy ones.
            assert!(
                id.starts_with('e'),
                "experiment id {id} must start with 'e'"
            );
        }
        assert_eq!(experiments::ALL.len(), 12);
    }
}
