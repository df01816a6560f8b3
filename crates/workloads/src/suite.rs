//! The 18-workload evaluation suite (§IV-C) with the paper's findings.
//!
//! Every entry records which figure panel it reproduces and the
//! configuration the paper found optimal (Table II + §VI), so the
//! calibration tests and the Table II bench can check the model's winners
//! against the paper's.

use crate::apps;
use crate::spec::{IoPattern, WorkflowSpec};

/// The six workload families of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// 64 MB-object microbenchmark (Fig. 4).
    Micro64MB,
    /// 2 KB-object microbenchmark (Fig. 5).
    Micro2KB,
    /// GTC + Read-Only (Fig. 6).
    GtcReadOnly,
    /// GTC + MatrixMult (Fig. 7).
    GtcMatMul,
    /// miniAMR + Read-Only (Fig. 8).
    MiniAmrReadOnly,
    /// miniAMR + MatrixMult (Fig. 9).
    MiniAmrMatMul,
}

impl Family {
    /// All families.
    pub const fn all() -> [Family; 6] {
        [
            Family::Micro64MB,
            Family::Micro2KB,
            Family::GtcReadOnly,
            Family::GtcMatMul,
            Family::MiniAmrReadOnly,
            Family::MiniAmrMatMul,
        ]
    }

    /// Build the family's workflow at the given rank count, around its
    /// [`Family::writer_io`].
    pub fn build(self, ranks: usize) -> WorkflowSpec {
        apps::build(self, ranks)
    }

    /// The writer's per-rank, per-iteration I/O shape, which the reader
    /// consumes at the same granularity. It does not depend on the rank
    /// count (weak scaling), so it is read without building a
    /// [`WorkflowSpec`].
    pub fn writer_io(self) -> IoPattern {
        match self {
            Family::Micro64MB => apps::micro_io(64 << 20),
            Family::Micro2KB => apps::micro_io(2048),
            Family::GtcReadOnly | Family::GtcMatMul => apps::GTC_IO,
            Family::MiniAmrReadOnly | Family::MiniAmrMatMul => apps::MINIAMR_IO,
        }
    }

    /// Parse a family from a user-facing name. Accepts the CLI spellings
    /// (`micro-64mb`, `gtc-matmult`, ...), the display names
    /// (`GTC+MatrixMult`, ...), and the `-matmul`/`-matmult` variants,
    /// case-insensitively. This is the single name table the CLI, the
    /// arrival-stream parser, DAG stage specs, and the serving daemon all
    /// resolve through — see [`WORKLOAD_ALIASES`].
    pub fn parse(name: &str) -> Option<Family> {
        let folded = name.to_ascii_lowercase();
        WORKLOAD_ALIASES
            .iter()
            .find(|&&(alias, _)| alias == folded)
            .map(|&(_, family)| family)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Family::Micro64MB => "micro-64MB",
            Family::Micro2KB => "micro-2KB",
            Family::GtcReadOnly => "GTC+ReadOnly",
            Family::GtcMatMul => "GTC+MatrixMult",
            Family::MiniAmrReadOnly => "miniAMR+ReadOnly",
            Family::MiniAmrMatMul => "miniAMR+MatrixMult",
        }
    }

    /// The paper figure this family's panels belong to.
    pub fn figure(self) -> &'static str {
        match self {
            Family::Micro64MB => "Fig. 4",
            Family::Micro2KB => "Fig. 5",
            Family::GtcReadOnly => "Fig. 6",
            Family::GtcMatMul => "Fig. 7",
            Family::MiniAmrReadOnly => "Fig. 8",
            Family::MiniAmrMatMul => "Fig. 9",
        }
    }
}

/// One suite entry: a workflow at a concurrency level plus the paper's
/// result for it.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Workload family.
    pub family: Family,
    /// Ranks per component.
    pub ranks: usize,
    /// The built workflow.
    pub spec: WorkflowSpec,
    /// Figure panel, e.g. "Fig. 4c".
    pub panel: &'static str,
    /// The configuration the paper found optimal ("S-LocW", "S-LocR",
    /// "P-LocW" or "P-LocR"); Table II + §VI.
    pub paper_winner: &'static str,
    /// Table II row number this workload illustrates (1-based).
    pub table2_row: u8,
}

/// Build the full 18-workload suite with the paper's winners.
pub fn paper_suite() -> Vec<SuiteEntry> {
    // (family, ranks, panel, winner, table2 row)
    let rows: [(Family, usize, &'static str, &'static str, u8); 18] = [
        (Family::Micro64MB, 8, "Fig. 4a", "S-LocW", 1),
        (Family::Micro64MB, 16, "Fig. 4b", "S-LocW", 1),
        (Family::Micro64MB, 24, "Fig. 4c", "S-LocW", 1),
        (Family::Micro2KB, 8, "Fig. 5a", "P-LocR", 9),
        (Family::Micro2KB, 16, "Fig. 5b", "P-LocR", 9),
        (Family::Micro2KB, 24, "Fig. 5c", "S-LocR", 5),
        (Family::GtcReadOnly, 8, "Fig. 6a", "P-LocR", 10),
        (Family::GtcReadOnly, 16, "Fig. 6b", "S-LocR", 6),
        (Family::GtcReadOnly, 24, "Fig. 6c", "S-LocW", 2),
        (Family::GtcMatMul, 8, "Fig. 7a", "P-LocR", 10),
        (Family::GtcMatMul, 16, "Fig. 7b", "P-LocR", 10),
        (Family::GtcMatMul, 24, "Fig. 7c", "S-LocW", 2),
        (Family::MiniAmrReadOnly, 8, "Fig. 8a", "P-LocR", 9),
        (Family::MiniAmrReadOnly, 16, "Fig. 8b", "S-LocR", 7),
        (Family::MiniAmrReadOnly, 24, "Fig. 8c", "S-LocW", 3),
        (Family::MiniAmrMatMul, 8, "Fig. 9a", "P-LocW", 8),
        (Family::MiniAmrMatMul, 16, "Fig. 9b", "S-LocW", 4),
        (Family::MiniAmrMatMul, 24, "Fig. 9c", "S-LocW", 4),
    ];
    rows.into_iter()
        .map(
            |(family, ranks, panel, paper_winner, table2_row)| SuiteEntry {
                family,
                ranks,
                spec: family.build(ranks),
                panel,
                paper_winner,
                table2_row,
            },
        )
        .collect()
}

/// Valid workload names for user-facing `--workload`-style options.
pub const WORKLOAD_CHOICES: &str =
    "micro-64mb, micro-2kb, gtc-readonly, gtc-matmult, miniamr-readonly, miniamr-matmult";

/// The one alias table every workload-name lookup folds through: each row
/// is an already-lowercased accepted spelling and the family it names.
/// The CLI (`--workload`), the arrival-stream `mix=` grammar, DAG stage
/// specs, and the serve cache-key canonicalization all resolve names via
/// [`Family::parse`] over this table, so a spelling accepted anywhere is
/// accepted (and cached/keyed identically) everywhere.
pub const WORKLOAD_ALIASES: &[(&str, Family)] = &[
    ("micro-64mb", Family::Micro64MB),
    ("micro-2kb", Family::Micro2KB),
    ("gtc-readonly", Family::GtcReadOnly),
    ("gtc+readonly", Family::GtcReadOnly),
    ("gtc-matmult", Family::GtcMatMul),
    ("gtc-matmul", Family::GtcMatMul),
    ("gtc+matrixmult", Family::GtcMatMul),
    ("miniamr-readonly", Family::MiniAmrReadOnly),
    ("miniamr+readonly", Family::MiniAmrReadOnly),
    ("miniamr-matmult", Family::MiniAmrMatMul),
    ("miniamr-matmul", Family::MiniAmrMatMul),
    ("miniamr+matrixmult", Family::MiniAmrMatMul),
];

/// Fold any accepted workload spelling to its canonical display name
/// (`Family::name()`), or `None` for unknown names. This is the alias
/// folding previously duplicated between the suite lookup and the serve
/// cache-key path.
pub fn canonical_workload_name(name: &str) -> Option<&'static str> {
    Family::parse(name).map(Family::name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_cli_and_display_spellings() {
        for f in Family::all() {
            assert_eq!(Family::parse(f.name()), Some(f), "{}", f.name());
            assert_eq!(
                Family::parse(&f.name().to_ascii_uppercase()),
                Some(f),
                "{}",
                f.name()
            );
        }
        assert_eq!(Family::parse("micro-64mb"), Some(Family::Micro64MB));
        assert_eq!(Family::parse("GTC-MatMult"), Some(Family::GtcMatMul));
        assert_eq!(Family::parse("gtc-matmul"), Some(Family::GtcMatMul));
        assert_eq!(
            Family::parse("miniamr-readonly"),
            Some(Family::MiniAmrReadOnly)
        );
        assert_eq!(Family::parse("hpl"), None);
        assert_eq!(Family::parse(""), None);
    }

    #[test]
    fn writer_io_is_what_build_puts_on_both_sides() {
        for f in Family::all() {
            for ranks in [8, 16, 24] {
                let spec = f.build(ranks);
                assert_eq!(f.writer_io(), spec.writer.io, "{f:?}@{ranks}");
                assert_eq!(f.writer_io(), spec.reader.io, "{f:?}@{ranks}");
            }
        }
    }

    #[test]
    fn choices_list_every_family() {
        for name in WORKLOAD_CHOICES.split(", ") {
            assert!(Family::parse(name).is_some(), "{name}");
        }
    }

    #[test]
    fn alias_table_is_lowercase_and_covers_every_family() {
        for &(alias, family) in WORKLOAD_ALIASES {
            assert_eq!(alias, alias.to_ascii_lowercase(), "{alias}");
            assert_eq!(Family::parse(alias), Some(family), "{alias}");
        }
        for f in Family::all() {
            assert!(
                WORKLOAD_ALIASES.iter().any(|&(_, fam)| fam == f),
                "{f:?} has no alias row"
            );
        }
    }

    #[test]
    fn canonical_names_fold_every_alias() {
        for &(alias, family) in WORKLOAD_ALIASES {
            assert_eq!(canonical_workload_name(alias), Some(family.name()));
            assert_eq!(
                canonical_workload_name(&alias.to_ascii_uppercase()),
                Some(family.name())
            );
        }
        assert_eq!(canonical_workload_name("hpl"), None);
    }

    #[test]
    fn suite_has_18_entries() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 18);
        for e in &suite {
            e.spec.validate().unwrap();
            assert!(matches!(
                e.paper_winner,
                "S-LocW" | "S-LocR" | "P-LocW" | "P-LocR"
            ));
            assert!((1..=10).contains(&e.table2_row));
        }
    }

    #[test]
    fn every_family_at_every_level() {
        let suite = paper_suite();
        for f in Family::all() {
            for ranks in [8, 16, 24] {
                assert_eq!(
                    suite
                        .iter()
                        .filter(|e| e.family == f && e.ranks == ranks)
                        .count(),
                    1,
                    "{f:?} @{ranks}"
                );
            }
        }
    }

    #[test]
    fn all_four_configs_appear_as_winners() {
        // §VII "No single optimal configuration".
        let suite = paper_suite();
        for cfg in ["S-LocW", "S-LocR", "P-LocW", "P-LocR"] {
            assert!(
                suite.iter().any(|e| e.paper_winner == cfg),
                "{cfg} never wins"
            );
        }
    }

    #[test]
    fn all_table2_rows_covered() {
        let suite = paper_suite();
        for row in 1..=10u8 {
            assert!(
                suite.iter().any(|e| e.table2_row == row),
                "Table II row {row} not illustrated"
            );
        }
    }

    #[test]
    fn panels_are_unique() {
        let suite = paper_suite();
        let mut panels: Vec<_> = suite.iter().map(|e| e.panel).collect();
        panels.sort();
        panels.dedup();
        assert_eq!(panels.len(), 18);
    }
}
