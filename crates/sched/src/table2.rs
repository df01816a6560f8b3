//! Table II as data: the paper's ten recommendation rows.
//!
//! Each row maps a qualitative workload class to the configuration the
//! paper recommends. [`classify`] finds the row matching a characterized
//! workflow, providing a second, lookup-style recommender that is exactly
//! the paper's table (the rule engine in [`crate::recommend`] is the
//! distilled decision procedure).

use crate::profile::{Level, WorkflowProfile};
use pmemflow_core::SchedConfig;
use pmemflow_workloads::{ConcurrencyClass, SizeClass};

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Row number (1-based, as printed in the paper).
    pub row: u8,
    /// Simulation compute levels matched by this row.
    pub sim_compute: &'static [Level],
    /// Simulation write levels matched.
    pub sim_write: &'static [Level],
    /// Analytics compute levels matched.
    pub analytics_compute: &'static [Level],
    /// Analytics read levels matched.
    pub analytics_read: &'static [Level],
    /// Object size matched.
    pub object_size: SizeClass,
    /// Concurrency classes matched.
    pub concurrency: &'static [ConcurrencyClass],
    /// The recommended configuration.
    pub config: SchedConfig,
    /// The paper's illustrative workloads.
    pub illustrated_by: &'static str,
}

use ConcurrencyClass::{High, Low, Medium};
use Level as L;

/// The ten rows of Table II, verbatim.
pub fn table2() -> Vec<Table2Row> {
    vec![
        Table2Row {
            row: 1,
            sim_compute: &[L::Nil],
            sim_write: &[L::High],
            analytics_compute: &[L::Nil],
            analytics_read: &[L::High],
            object_size: SizeClass::Large,
            concurrency: &[Low, Medium, High],
            config: SchedConfig::S_LOC_W,
            illustrated_by: "64MB workflows: Fig 4a,4b,4c",
        },
        Table2Row {
            row: 2,
            sim_compute: &[L::High],
            sim_write: &[L::Low],
            analytics_compute: &[L::Low, L::Medium, L::High],
            analytics_read: &[L::Medium, L::High],
            object_size: SizeClass::Large,
            concurrency: &[High],
            config: SchedConfig::S_LOC_W,
            illustrated_by: "GTC+Read-Only Fig 6c; GTC+MatrixMult Fig 7c",
        },
        Table2Row {
            row: 3,
            sim_compute: &[L::Low],
            sim_write: &[L::High],
            analytics_compute: &[L::Low, L::Nil],
            analytics_read: &[L::High],
            object_size: SizeClass::Small,
            concurrency: &[High],
            config: SchedConfig::S_LOC_W,
            illustrated_by: "miniAMR+Read-Only Fig 8c",
        },
        Table2Row {
            row: 4,
            sim_compute: &[L::Low],
            sim_write: &[L::High],
            analytics_compute: &[L::High],
            analytics_read: &[L::Low],
            object_size: SizeClass::Small,
            concurrency: &[Medium, High],
            config: SchedConfig::S_LOC_W,
            illustrated_by: "miniAMR+MatrixMult Fig 9b,9c",
        },
        Table2Row {
            row: 5,
            sim_compute: &[L::Low, L::Nil],
            sim_write: &[L::High],
            analytics_compute: &[L::Nil],
            analytics_read: &[L::High],
            object_size: SizeClass::Small,
            concurrency: &[High],
            config: SchedConfig::S_LOC_R,
            illustrated_by: "2K workflows: Fig 5c",
        },
        Table2Row {
            row: 6,
            sim_compute: &[L::High],
            sim_write: &[L::Low],
            analytics_compute: &[L::Low, L::Nil],
            analytics_read: &[L::High],
            object_size: SizeClass::Large,
            concurrency: &[Medium],
            config: SchedConfig::S_LOC_R,
            illustrated_by: "GTC+Read-Only Fig 6b",
        },
        Table2Row {
            row: 7,
            sim_compute: &[L::Low],
            sim_write: &[L::High],
            analytics_compute: &[L::Low, L::Nil],
            analytics_read: &[L::High],
            object_size: SizeClass::Small,
            concurrency: &[Medium],
            config: SchedConfig::S_LOC_R,
            illustrated_by: "miniAMR+Read-Only Fig 8b",
        },
        Table2Row {
            row: 8,
            sim_compute: &[L::Low],
            sim_write: &[L::High],
            analytics_compute: &[L::High],
            analytics_read: &[L::Low],
            object_size: SizeClass::Small,
            concurrency: &[Low],
            config: SchedConfig::P_LOC_W,
            illustrated_by: "miniAMR+MatrixMult Fig 9a",
        },
        Table2Row {
            row: 9,
            sim_compute: &[L::Nil, L::Low],
            sim_write: &[L::High],
            analytics_compute: &[L::Nil],
            analytics_read: &[L::Medium, L::High],
            object_size: SizeClass::Small,
            concurrency: &[Low, Medium],
            config: SchedConfig::P_LOC_R,
            illustrated_by: "2K workflows Fig 5a,5b; miniAMR+Read-Only Fig 8a",
        },
        Table2Row {
            row: 10,
            sim_compute: &[L::High],
            sim_write: &[L::Low],
            analytics_compute: &[L::Low, L::Medium, L::High],
            analytics_read: &[L::High],
            object_size: SizeClass::Large,
            concurrency: &[Low, Medium],
            config: SchedConfig::P_LOC_R,
            illustrated_by: "GTC+Read-Only Fig 6a; GTC+MatrixMult Fig 7a,7b",
        },
    ]
}

/// Find the first Table II row matching a characterized workflow, if any.
/// Returns `None` for workload classes outside the table — the reason the
/// paper's own rules (and our [`crate::recommend`]) generalize beyond it.
pub fn classify(profile: &WorkflowProfile) -> Option<Table2Row> {
    table2().into_iter().find(|row| {
        row.sim_compute.contains(&profile.sim_compute)
            && row.sim_write.contains(&profile.sim_write)
            && row.analytics_compute.contains(&profile.analytics_compute)
            && row.analytics_read.contains(&profile.analytics_read)
            && row.object_size == profile.object_size
            && row.concurrency.contains(&profile.concurrency)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_ten_rows_in_order() {
        let t = table2();
        assert_eq!(t.len(), 10);
        for (i, row) in t.iter().enumerate() {
            assert_eq!(row.row as usize, i + 1);
        }
    }

    #[test]
    fn recommendations_cover_all_four_configs() {
        let t = table2();
        for config in SchedConfig::ALL {
            assert!(t.iter().any(|r| r.config == config), "{config} missing");
        }
    }

    #[test]
    fn classify_picks_row_1_for_pure_io_large() {
        let p = WorkflowProfile {
            name: "micro".into(),
            sim_compute: L::Nil,
            sim_write: L::High,
            analytics_compute: L::Nil,
            analytics_read: L::High,
            object_size: SizeClass::Large,
            concurrency: High,
            sim_io_index: 1.0,
            analytics_io_index: 1.0,
            sim_device_concurrency: 24.0,
            analytics_device_concurrency: 24.0,
            write_saturation: 1.0,
        };
        let row = classify(&p).expect("row 1 matches");
        assert_eq!(row.row, 1);
        assert_eq!(row.config, SchedConfig::S_LOC_W);
    }

    #[test]
    fn classify_returns_none_outside_table() {
        // Large objects with nil-compute sim at *low* concurrency and
        // medium reads: not in the table.
        let p = WorkflowProfile {
            name: "odd".into(),
            sim_compute: L::Medium,
            sim_write: L::Medium,
            analytics_compute: L::Medium,
            analytics_read: L::Medium,
            object_size: SizeClass::Large,
            concurrency: Low,
            sim_io_index: 0.5,
            analytics_io_index: 0.5,
            sim_device_concurrency: 4.0,
            analytics_device_concurrency: 4.0,
            write_saturation: 0.2,
        };
        assert!(classify(&p).is_none());
    }
}
