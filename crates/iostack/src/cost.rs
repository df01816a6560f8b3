//! Software cost models of the two I/O stacks.
//!
//! The paper's §IV-A identifies the per-operation software cost of the PMEM
//! stack as one of the three parameters governing a workflow's sensitivity
//! to PMEM behaviour: with small objects the aggregate software cost
//! dominates and the device is *under*-utilized; with large objects it
//! vanishes and the device saturates. The two stacks differ exactly here
//! (§V): NOVA pays a user/kernel crossing, journaling, and log management
//! per file operation, while NVStream runs entirely in userspace with a
//! lean versioned-log append.
//!
//! Costs are calibrated to the magnitudes published for NOVA (FAST'16 §6:
//! multi-microsecond small-file latencies) and NVStream (HPDC'18 §5:
//! several-times-lower software overhead than filesystem transports).

use pmemflow_des::Direction;

/// Which I/O stack carries the streaming channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackKind {
    /// NOVA-like log-structured PMEM filesystem (kernel path).
    Nova,
    /// NVStream-like userspace versioned object store.
    NvStream,
}

impl StackKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            StackKind::Nova => "NOVA",
            StackKind::NvStream => "NVStream",
        }
    }

    /// Parse a stack from a user-facing name, case-insensitively. The
    /// single name table the CLI and the serving daemon resolve through.
    pub fn parse(name: &str) -> Option<StackKind> {
        match name.to_ascii_lowercase().as_str() {
            "nova" => Some(StackKind::Nova),
            "nvstream" => Some(StackKind::NvStream),
            _ => None,
        }
    }

    /// The cost model for this stack.
    pub fn cost_model(self) -> StackCostModel {
        match self {
            StackKind::Nova => StackCostModel {
                name: "NOVA",
                // write(): syscall entry/exit + VFS dispatch (~2.0 us),
                // per-inode log append + allocator (~1.4 us), metadata
                // journal update + flushes (~1.1 us).
                write_op_cost: 8.0e-6,
                // read(): syscall + VFS (~3.5 us), log/index lookup (~1.5 us).
                read_op_cost: 5.0e-6,
                // Checksumming and log-entry bookkeeping per byte.
                write_byte_cost: 0.45e-9,
                read_byte_cost: 0.33e-9,
            },
            StackKind::NvStream => StackCostModel {
                name: "NVStream",
                // Userspace versioned-log append: header build, allocator,
                // index insert, tail persist with two fences (~3.8 us
                // total; calibrated by bin/tune within the range NVStream's
                // authors report for small-object appends).
                write_op_cost: 3.49e-6,
                // Index lookup + entry validation, no kernel crossing.
                read_op_cost: 2.53e-6,
                // Payload checksumming per byte (the functional store
                // checksums every persisted byte).
                write_byte_cost: 0.13e-9,
                read_byte_cost: 0.167e-9,
            },
        }
    }
}

/// Per-operation and per-byte CPU costs of one stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackCostModel {
    /// Stack name.
    pub name: &'static str,
    /// CPU seconds per write operation (object put).
    pub write_op_cost: f64,
    /// CPU seconds per read operation (object get).
    pub read_op_cost: f64,
    /// CPU seconds per written byte beyond the device transfer itself.
    pub write_byte_cost: f64,
    /// CPU seconds per read byte beyond the device transfer itself.
    pub read_byte_cost: f64,
}

impl StackCostModel {
    /// CPU seconds per operation for the given direction.
    fn op_cost(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Read => self.read_op_cost,
            Direction::Write => self.write_op_cost,
        }
    }

    /// CPU seconds per byte for the given direction.
    fn byte_cost(&self, dir: Direction) -> f64 {
        match dir {
            Direction::Read => self.read_byte_cost,
            Direction::Write => self.write_byte_cost,
        }
    }

    /// Software seconds per byte for objects of `object_bytes`, with
    /// `device_latency` (seconds) charged per operation. This is the
    /// `sw_time_per_byte` handed to the fluid model.
    pub fn sw_time_per_byte(&self, dir: Direction, object_bytes: u64, device_latency: f64) -> f64 {
        assert!(object_bytes > 0, "objects must be non-empty");
        (self.op_cost(dir) + device_latency) / object_bytes as f64 + self.byte_cost(dir)
    }

    /// Total software seconds for a snapshot of `objects` objects of
    /// `object_bytes` each.
    pub fn snapshot_sw_time(
        &self,
        dir: Direction,
        objects: u64,
        object_bytes: u64,
        device_latency: f64,
    ) -> f64 {
        self.sw_time_per_byte(dir, object_bytes, device_latency)
            * (objects as f64)
            * (object_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nova_is_heavier_than_nvstream() {
        let nova = StackKind::Nova.cost_model();
        let nvs = StackKind::NvStream.cost_model();
        assert!(nova.write_op_cost > 2.0 * nvs.write_op_cost);
        assert!(nova.read_op_cost > 1.5 * nvs.read_op_cost);
        assert!(nova.write_byte_cost > nvs.write_byte_cost);
    }

    #[test]
    fn small_objects_dominated_by_op_cost() {
        let m = StackKind::NvStream.cost_model();
        let small = m.sw_time_per_byte(Direction::Write, 2048, 90e-9);
        let large = m.sw_time_per_byte(Direction::Write, 64 << 20, 90e-9);
        // Per-byte software cost collapses for large objects (down to the
        // per-byte checksum floor).
        assert!(small / large > 5.0, "{small} vs {large}");
        assert!((large - m.write_byte_cost).abs() / large < 0.05);
    }

    #[test]
    fn snapshot_sw_time_scales_with_object_count() {
        let m = StackKind::Nova.cost_model();
        // 1 GB in 2 KB objects = 524288 ops at ~8 us: seconds of CPU work.
        let t_small = m.snapshot_sw_time(Direction::Write, 524_288, 2048, 90e-9);
        // 1 GB in 64 MB objects = 16 ops: only the per-byte floor remains.
        let t_large = m.snapshot_sw_time(Direction::Write, 16, 64 << 20, 90e-9);
        assert!(t_small > 1.0, "small-object software time {t_small}");
        assert!(t_large < 1.0, "large-object software time {t_large}");
        assert!(t_small / t_large > 4.0);
    }

    #[test]
    fn latency_asymmetry_visible_for_small_objects() {
        // With 2 KB objects, the extra ~140 ns of remote read latency per
        // op is a measurable per-byte cost; for writes the remote penalty
        // is tiny. This drives the paper's LocR preference for small,
        // non-saturating workloads.
        let m = StackKind::NvStream.cost_model();
        let r_local = m.sw_time_per_byte(Direction::Read, 2048, 169e-9);
        let r_remote = m.sw_time_per_byte(Direction::Read, 2048, 310e-9);
        let w_local = m.sw_time_per_byte(Direction::Write, 2048, 90e-9);
        let w_remote = m.sw_time_per_byte(Direction::Write, 2048, 115e-9);
        let read_penalty = r_remote / r_local;
        let write_penalty = w_remote / w_local;
        assert!(read_penalty > write_penalty);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_byte_objects_rejected() {
        StackKind::Nova
            .cost_model()
            .sw_time_per_byte(Direction::Write, 0, 0.0);
    }
}
