//! Execution timelines: per-process event traces and exports.
//!
//! The paper's split bar graphs and our debugging both need to know *when*
//! each rank computed, moved bytes, and waited. The engine can record a
//! [`Timeline`] of span events per process; this module renders it as an
//! ASCII Gantt chart (for terminals and docs) and as Chrome trace-event
//! JSON (load `chrome://tracing` or Perfetto and drop the file in).

use crate::time::SimTime;
use std::fmt::Write as _;

/// What a process was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Kernel compute.
    Compute,
    /// An I/O flow in flight.
    Io,
    /// Parked on a version channel.
    Wait,
}

impl SpanKind {
    /// Single-character glyph for ASCII rendering.
    fn glyph(self) -> char {
        match self {
            SpanKind::Compute => '#',
            SpanKind::Io => '=',
            SpanKind::Wait => '.',
        }
    }

    /// Name used in trace exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Io => "io",
            SpanKind::Wait => "wait",
        }
    }
}

/// One closed span in a process's timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Span start.
    pub start: SimTime,
    /// Span end (≥ start).
    pub end: SimTime,
    /// What the process was doing.
    pub kind: SpanKind,
}

impl Span {
    /// Span length in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end.seconds() - self.start.seconds()).max(0.0)
    }
}

/// A per-process sequence of spans, in time order.
#[derive(Debug, Clone, Default)]
pub struct ProcessTimeline {
    /// Process name.
    pub name: String,
    /// Closed spans in start order.
    pub spans: Vec<Span>,
}

impl ProcessTimeline {
    /// Total seconds spent in `kind`.
    pub fn total(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::seconds)
            .sum()
    }
}

/// Timelines for every process of a run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// One timeline per process, in spawn order.
    pub processes: Vec<ProcessTimeline>,
    /// End of the run.
    pub end_time: SimTime,
}

impl Timeline {
    /// Render an ASCII Gantt chart `width` characters wide.
    ///
    /// `#` = compute, `=` = I/O, `.` = waiting, space = finished/idle.
    pub fn ascii_gantt(&self, width: usize) -> String {
        let width = width.max(10);
        let end = self.end_time.seconds().max(1e-12);
        let mut out = String::new();
        let name_w = self
            .processes
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(4)
            .min(24);
        for p in &self.processes {
            let mut row = vec![' '; width];
            for span in &p.spans {
                let a = ((span.start.seconds() / end) * width as f64).floor() as usize;
                let b = ((span.end.seconds() / end) * width as f64).ceil() as usize;
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = span.kind.glyph();
                }
            }
            let _ = writeln!(
                out,
                "{:<name_w$} |{}|",
                &p.name[..p.name.len().min(name_w)],
                row.into_iter().collect::<String>()
            );
        }
        let _ = writeln!(
            out,
            "{:<name_w$}  0s{:>pad$}",
            "",
            format!("{:.2}s", end),
            pad = width.saturating_sub(2)
        );
        out.push_str("legend: # compute  = io  . wait\n");
        out
    }

    /// Export as Chrome trace-event JSON (complete events, microseconds).
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (pid, p) in self.processes.iter().enumerate() {
            for span in &p.spans {
                if !first {
                    out.push(',');
                }
                first = false;
                let _ = write!(
                    out,
                    "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"process\":\"{}\"}}}}",
                    span.kind.name(),
                    span.kind.name(),
                    crate::json::json_f64((span.start.seconds() * 1e6 * 1e3).round() / 1e3),
                    crate::json::json_f64((span.seconds() * 1e6 * 1e3).round() / 1e3),
                    pid,
                    crate::json::json_escape(&p.name)
                );
            }
        }
        out.push_str("\n]\n");
        out
    }

    /// Fraction of the run during which at least `k` processes were in I/O
    /// simultaneously — a quick view of device pressure.
    pub fn io_overlap_fraction(&self, k: usize) -> f64 {
        let end = self.end_time.seconds();
        if end <= 0.0 {
            return 0.0;
        }
        // Sweep over span boundaries.
        let mut events: Vec<(f64, i64)> = Vec::new();
        for p in &self.processes {
            for s in p.spans.iter().filter(|s| s.kind == SpanKind::Io) {
                events.push((s.start.seconds(), 1));
                events.push((s.end.seconds(), -1));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut active = 0i64;
        let mut covered = 0.0;
        let mut last = 0.0;
        for (t, d) in events {
            if active >= k as i64 {
                covered += t - last;
            }
            active += d;
            last = t;
        }
        covered / end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> Timeline {
        Timeline {
            processes: vec![
                ProcessTimeline {
                    name: "writer-0".into(),
                    spans: vec![
                        Span {
                            start: SimTime(0.0),
                            end: SimTime(1.0),
                            kind: SpanKind::Compute,
                        },
                        Span {
                            start: SimTime(1.0),
                            end: SimTime(2.0),
                            kind: SpanKind::Io,
                        },
                    ],
                },
                ProcessTimeline {
                    name: "reader-0".into(),
                    spans: vec![
                        Span {
                            start: SimTime(0.0),
                            end: SimTime(1.5),
                            kind: SpanKind::Wait,
                        },
                        Span {
                            start: SimTime(1.5),
                            end: SimTime(2.5),
                            kind: SpanKind::Io,
                        },
                    ],
                },
            ],
            end_time: SimTime(2.5),
        }
    }

    #[test]
    fn totals_per_kind() {
        let t = tl();
        assert!((t.processes[0].total(SpanKind::Compute) - 1.0).abs() < 1e-12);
        assert!((t.processes[0].total(SpanKind::Io) - 1.0).abs() < 1e-12);
        assert!((t.processes[1].total(SpanKind::Wait) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ascii_gantt_shape() {
        let g = tl().ascii_gantt(40);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 4); // two rows + axis + legend
        assert!(lines[0].contains('#') && lines[0].contains('='));
        assert!(lines[1].contains('.') && lines[1].contains('='));
        assert!(g.contains("legend"));
    }

    #[test]
    fn chrome_trace_is_wellformed_json_array() {
        let j = tl().chrome_trace_json();
        assert!(j.trim_start().starts_with('['));
        assert!(j.trim_end().ends_with(']'));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 4);
        assert!(j.contains("\"name\":\"compute\""));
        // Balanced braces (cheap sanity check without a JSON dep).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn chrome_trace_survives_hostile_names_and_times() {
        // A process name with quotes/control characters must be escaped,
        // and non-finite span times must degrade to null, not "NaN".
        let t = Timeline {
            processes: vec![ProcessTimeline {
                name: "rank \"0\"\n\u{1}".into(),
                spans: vec![Span {
                    start: SimTime(f64::NAN),
                    end: SimTime(1.0),
                    kind: SpanKind::Io,
                }],
            }],
            end_time: SimTime(1.0),
        };
        let j = t.chrome_trace_json();
        assert!(j.contains("rank \\\"0\\\"\\n\\u0001"), "{j}");
        assert!(j.contains("\"ts\":null"), "{j}");
        assert!(!j.contains("NaN"), "{j}");
        // Still a balanced document: the quote in the name did not
        // terminate the string literal early.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn io_overlap_fraction_counts_concurrent_io() {
        let t = tl();
        // I/O spans: [1,2] and [1.5,2.5] -> overlap of 2 flows on [1.5,2].
        let f2 = t.io_overlap_fraction(2);
        assert!((f2 - 0.5 / 2.5).abs() < 1e-9, "{f2}");
        let f1 = t.io_overlap_fraction(1);
        assert!((f1 - 1.5 / 2.5).abs() < 1e-9, "{f1}");
    }

    #[test]
    fn empty_timeline_renders() {
        let t = Timeline::default();
        assert!(t.ascii_gantt(20).contains("legend"));
        assert_eq!(t.io_overlap_fraction(1), 0.0);
    }
}
