//! The scheduler configuration space (paper Table I).
//!
//! Two binary decisions define the four configurations the paper studies:
//!
//! * **Execution mode** — *Serial* (analytics starts after the simulation
//!   has completed; PMEM accesses never overlap) or *Parallel* (components
//!   run concurrently, the reader pipelining one version behind the
//!   writer).
//! * **Placement** — which component is pinned to the socket that owns the
//!   PMEM streaming channel: *LocW* (local-write / remote-read) or *LocR*
//!   (remote-write / local-read).

use pmemflow_des::Locality;

/// Serial or parallel component scheduling (Table I "Execution Mode").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Analytics runs only after the simulation has fully completed.
    Serial,
    /// Simulation and analytics run concurrently (pipelined by version).
    Parallel,
}

/// PMEM placement relative to the components (Table I "Placement").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// local-write / remote-read: the channel lives on the writer's socket.
    LocW,
    /// remote-write / local-read: the channel lives on the reader's socket.
    LocR,
}

/// One of the paper's four scheduler configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedConfig {
    /// Execution mode.
    pub mode: ExecMode,
    /// PMEM placement.
    pub placement: Placement,
}

impl SchedConfig {
    /// Serial, local-write/remote-read.
    pub const S_LOC_W: SchedConfig = SchedConfig {
        mode: ExecMode::Serial,
        placement: Placement::LocW,
    };
    /// Serial, remote-write/local-read.
    pub const S_LOC_R: SchedConfig = SchedConfig {
        mode: ExecMode::Serial,
        placement: Placement::LocR,
    };
    /// Parallel, local-write/remote-read.
    pub const P_LOC_W: SchedConfig = SchedConfig {
        mode: ExecMode::Parallel,
        placement: Placement::LocW,
    };
    /// Parallel, remote-write/local-read.
    pub const P_LOC_R: SchedConfig = SchedConfig {
        mode: ExecMode::Parallel,
        placement: Placement::LocR,
    };

    /// All four configurations in Table I order.
    pub const ALL: [SchedConfig; 4] = [
        SchedConfig::S_LOC_W,
        SchedConfig::S_LOC_R,
        SchedConfig::P_LOC_W,
        SchedConfig::P_LOC_R,
    ];

    /// The paper's label, e.g. `"S-LocW"`.
    pub fn label(&self) -> &'static str {
        match (self.mode, self.placement) {
            (ExecMode::Serial, Placement::LocW) => "S-LocW",
            (ExecMode::Serial, Placement::LocR) => "S-LocR",
            (ExecMode::Parallel, Placement::LocW) => "P-LocW",
            (ExecMode::Parallel, Placement::LocR) => "P-LocR",
        }
    }

    /// Parse a paper label (`"S-LocW"` etc., case-insensitive).
    pub fn parse(s: &str) -> Option<SchedConfig> {
        let norm = s.trim().to_ascii_lowercase();
        match norm.as_str() {
            "s-locw" => Some(SchedConfig::S_LOC_W),
            "s-locr" => Some(SchedConfig::S_LOC_R),
            "p-locw" => Some(SchedConfig::P_LOC_W),
            "p-locr" => Some(SchedConfig::P_LOC_R),
            _ => None,
        }
    }

    /// The writer's locality relative to the PMEM channel. The channel
    /// lives on socket 0 and the two components on opposite sockets, so
    /// this is the one placement → locality map: LocW puts the writer on
    /// socket 0, LocR the reader.
    pub fn writer_locality(&self) -> Locality {
        match self.placement {
            Placement::LocW => Locality::Local,
            Placement::LocR => Locality::Remote,
        }
    }

    /// The reader's locality relative to the PMEM channel (the opposite
    /// of [`SchedConfig::writer_locality`]).
    pub fn reader_locality(&self) -> Locality {
        match self.placement {
            Placement::LocW => Locality::Remote,
            Placement::LocR => Locality::Local,
        }
    }
}

impl std::fmt::Display for SchedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_four_distinct_configs() {
        let mut labels: Vec<_> = SchedConfig::ALL.iter().map(|c| c.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn parse_roundtrip() {
        for c in SchedConfig::ALL {
            assert_eq!(SchedConfig::parse(c.label()), Some(c));
            assert_eq!(SchedConfig::parse(&c.label().to_lowercase()), Some(c));
        }
        assert_eq!(SchedConfig::parse("bogus"), None);
    }

    #[test]
    fn localities_are_opposite() {
        for c in SchedConfig::ALL {
            assert_ne!(c.writer_locality(), c.reader_locality());
        }
        assert_eq!(SchedConfig::S_LOC_W.writer_locality(), Locality::Local);
        assert_eq!(SchedConfig::P_LOC_R.reader_locality(), Locality::Local);
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(SchedConfig::P_LOC_W.to_string(), "P-LocW");
    }
}
