//! Workflow component and workflow specifications.
//!
//! A workflow couples a **simulation** (writer) and an **analytics**
//! (reader) component in a 1:1 rank exchange (paper §IV-C): both components
//! run the same number of ranks, every writer rank streams a snapshot of
//! named objects per iteration, and the matching reader rank consumes every
//! object of every snapshot at the same granularity.

/// The shape of one component's per-iteration I/O (§IV-A "Object size").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoPattern {
    /// Objects written/read per rank per iteration.
    pub objects_per_snapshot: u64,
    /// Bytes per object.
    pub object_bytes: u64,
}

impl IoPattern {
    /// Total bytes a rank moves per iteration.
    pub fn snapshot_bytes(&self) -> u64 {
        self.objects_per_snapshot * self.object_bytes
    }

    /// Classify granularity the way the paper's Table II does.
    pub fn size_class(&self) -> SizeClass {
        if self.object_bytes >= 1 << 20 {
            SizeClass::Large
        } else {
            SizeClass::Small
        }
    }
}

/// Table II's object-size classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeClass {
    /// Sub-megabyte objects (2 KB microbenchmark, 4.5 KB miniAMR blocks).
    Small,
    /// Megabyte-and-up objects (64 MB microbenchmark, 229 MB GTC arrays).
    Large,
}

/// Table II's concurrency classes (§IV-B: 8 / 16 / 24 ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConcurrencyClass {
    /// 8 ranks per component.
    Low,
    /// 16 ranks per component.
    Medium,
    /// 24 ranks per component.
    High,
}

impl ConcurrencyClass {
    /// Rank count for the class.
    pub fn ranks(self) -> usize {
        match self {
            ConcurrencyClass::Low => 8,
            ConcurrencyClass::Medium => 16,
            ConcurrencyClass::High => 24,
        }
    }

    /// The class for a rank count (nearest paper level).
    fn from_ranks(ranks: usize) -> ConcurrencyClass {
        if ranks <= 11 {
            ConcurrencyClass::Low
        } else if ranks <= 20 {
            ConcurrencyClass::Medium
        } else {
            ConcurrencyClass::High
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            ConcurrencyClass::Low => "low",
            ConcurrencyClass::Medium => "medium",
            ConcurrencyClass::High => "high",
        }
    }
}

/// One workflow component (simulation or analytics).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSpec {
    /// Component name (e.g. "gtc", "matmult").
    pub name: String,
    /// Virtual seconds of kernel compute per rank per iteration,
    /// interleaved with the I/O phase. Derived from the proxy kernels in
    /// [`crate::kernels`]; constant across rank counts (weak scaling).
    pub compute_per_iteration: f64,
    /// Per-iteration I/O shape.
    pub io: IoPattern,
}

/// A complete coupled workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowSpec {
    /// Workflow name (e.g. "gtc+readonly").
    pub name: String,
    /// The simulation (writer) component.
    pub writer: ComponentSpec,
    /// The analytics (reader) component. Its `io` must equal the writer's
    /// (1:1 exchange at identical granularity, §IV-C).
    pub reader: ComponentSpec,
    /// Ranks per component.
    pub ranks: usize,
    /// Iterations (snapshots) per rank.
    pub iterations: u64,
}

impl WorkflowSpec {
    /// Validate the 1:1 exchange invariant and basic sanity.
    pub fn validate(&self) -> Result<(), String> {
        if self.writer.io != self.reader.io {
            return Err(format!(
                "writer and reader I/O patterns differ in {:?}",
                self.name
            ));
        }
        if self.ranks == 0 {
            return Err("ranks must be positive".into());
        }
        if self.iterations == 0 {
            return Err("iterations must be positive".into());
        }
        if self.writer.io.objects_per_snapshot == 0 || self.writer.io.object_bytes == 0 {
            return Err("I/O pattern must move data".into());
        }
        if self.writer.compute_per_iteration < 0.0 || self.reader.compute_per_iteration < 0.0 {
            return Err("compute time cannot be negative".into());
        }
        Ok(())
    }

    /// Total bytes streamed through PMEM over the whole run
    /// (ranks × iterations × snapshot, written once and read once).
    pub fn total_bytes_written(&self) -> u64 {
        self.ranks as u64 * self.iterations * self.writer.io.snapshot_bytes()
    }

    /// Concurrency class of this workflow.
    pub fn concurrency_class(&self) -> ConcurrencyClass {
        ConcurrencyClass::from_ranks(self.ranks)
    }

    /// A copy with a different rank count.
    pub fn with_ranks(&self, ranks: usize) -> WorkflowSpec {
        let mut w = self.clone();
        w.ranks = ranks;
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkflowSpec {
        WorkflowSpec {
            name: "t".into(),
            writer: ComponentSpec {
                name: "w".into(),
                compute_per_iteration: 1.0,
                io: IoPattern {
                    objects_per_snapshot: 16,
                    object_bytes: 64 << 20,
                },
            },
            reader: ComponentSpec {
                name: "r".into(),
                compute_per_iteration: 0.0,
                io: IoPattern {
                    objects_per_snapshot: 16,
                    object_bytes: 64 << 20,
                },
            },
            ranks: 8,
            iterations: 10,
        }
    }

    #[test]
    fn validates_ok() {
        assert!(spec().validate().is_ok());
    }

    #[test]
    fn rejects_mismatched_io() {
        let mut s = spec();
        s.reader.io.object_bytes = 2048;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_degenerate() {
        let mut s = spec();
        s.ranks = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.iterations = 0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.writer.io.object_bytes = 0;
        s.reader.io.object_bytes = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn totals() {
        let s = spec();
        assert_eq!(s.writer.io.snapshot_bytes(), 1 << 30);
        assert_eq!(s.total_bytes_written(), 8 * 10 * (1u64 << 30)); // 80 GB
    }

    #[test]
    fn size_classes() {
        assert_eq!(
            IoPattern {
                objects_per_snapshot: 1,
                object_bytes: 2048
            }
            .size_class(),
            SizeClass::Small
        );
        assert_eq!(
            IoPattern {
                objects_per_snapshot: 1,
                object_bytes: 229 << 20
            }
            .size_class(),
            SizeClass::Large
        );
    }

    #[test]
    fn concurrency_classes() {
        assert_eq!(ConcurrencyClass::from_ranks(8), ConcurrencyClass::Low);
        assert_eq!(ConcurrencyClass::from_ranks(16), ConcurrencyClass::Medium);
        assert_eq!(ConcurrencyClass::from_ranks(24), ConcurrencyClass::High);
        assert_eq!(ConcurrencyClass::High.ranks(), 24);
    }

    /// Concurrency classes partition the rank axis without gaps, and the
    /// canonical rank of each class maps back to it.
    #[test]
    fn concurrency_classes_partition() {
        for ranks in 1..56usize {
            let c = ConcurrencyClass::from_ranks(ranks);
            assert!(matches!(
                c,
                ConcurrencyClass::Low | ConcurrencyClass::Medium | ConcurrencyClass::High
            ));
            assert_eq!(ConcurrencyClass::from_ranks(c.ranks()), c);
        }
    }
}
