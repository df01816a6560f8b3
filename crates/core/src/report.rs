//! Plain-text emitter for run results.
//!
//! The figure binaries in `pmemflow-bench` print the same rows the
//! paper's plots show; this keeps the formatting in one place.

use crate::metrics::ConfigSweep;

/// One figure-panel table: runtimes per configuration, split for serial
/// runs (the paper's split bar graphs).
pub fn panel_table(sweep: &ConfigSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {}\n", sweep.workflow));
    out.push_str("config  total_s   writer_s  reader_s  norm\n");
    for run in &sweep.runs {
        let (w, r) = match run.config.mode {
            crate::config::ExecMode::Serial => run.serial_split(),
            crate::config::ExecMode::Parallel => (run.writer.finish_time, 0.0),
        };
        out.push_str(&format!(
            "{:<7} {:>8.3} {:>9.3} {:>9.3} {:>5.2}{}\n",
            run.config.label(),
            run.total,
            w,
            r,
            sweep.normalized(run.config),
            if run.config == sweep.best().config {
                "  <- best"
            } else {
                ""
            }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedConfig;
    use crate::metrics::{ComponentMetrics, RunMetrics};
    use pmemflow_des::ResourceReport;

    fn sweep() -> ConfigSweep {
        let mk = |config: SchedConfig, total: f64| RunMetrics {
            config,
            total,
            writer: ComponentMetrics {
                finish_time: total / 2.0,
                bytes: 1.0,
                ..Default::default()
            },
            reader: ComponentMetrics {
                finish_time: total,
                bytes: 1.0,
                ..Default::default()
            },
            device: ResourceReport::default(),
            events: 1,
            max_heap_depth: 1,
            timeline: None,
        };
        ConfigSweep {
            workflow: "w".into(),
            runs: vec![
                mk(SchedConfig::S_LOC_W, 4.0),
                mk(SchedConfig::S_LOC_R, 5.0),
                mk(SchedConfig::P_LOC_W, 6.0),
                mk(SchedConfig::P_LOC_R, 8.0),
            ],
        }
    }

    #[test]
    fn table_marks_best() {
        let t = panel_table(&sweep());
        assert!(t.contains("S-LocW"));
        assert!(t
            .lines()
            .any(|l| l.contains("S-LocW") && l.contains("best")));
    }
}
