//! Import workflow specifications from a plain-text table.
//!
//! Users bring their own workflows: one line per workflow, comma-separated
//! fields, `#` comments. This is the interchange point between real
//! workflow descriptions (job scripts, instrumentation output) and the
//! simulator — the same shape the paper's Table II characterizes workloads
//! by.
//!
//! ```text
//! # name, ranks, iterations, writer_compute_s, reader_compute_s, objects, object_bytes
//! lammps-vis,   16, 10, 1.2, 0.1, 64,    4194304
//! ml-ingest,     8, 20, 0.0, 0.8, 50000, 2048
//! ```

use crate::spec::{ComponentSpec, IoPattern, WorkflowSpec};

/// A parse failure with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn field<'a>(
    parts: &'a [&'a str],
    idx: usize,
    name: &str,
    line: usize,
) -> Result<&'a str, ParseError> {
    parts.get(idx).map(|s| s.trim()).ok_or_else(|| ParseError {
        line,
        message: format!("missing field {name} (column {})", idx + 1),
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, name: &str, line: usize) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError {
        line,
        message: format!("field {name}: cannot parse {s:?}"),
    })
}

/// Parse a workflow table. Returns every workflow, validated.
pub fn parse_workflows(text: &str) -> Result<Vec<WorkflowSpec>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 7 {
            return Err(ParseError {
                line: line_no,
                message: format!("expected 7 comma-separated fields, got {}", parts.len()),
            });
        }
        let name = field(&parts, 0, "name", line_no)?.to_string();
        if name.is_empty() {
            return Err(ParseError {
                line: line_no,
                message: "empty workflow name".into(),
            });
        }
        let ranks: usize = parse_num(field(&parts, 1, "ranks", line_no)?, "ranks", line_no)?;
        let iterations: u64 = parse_num(
            field(&parts, 2, "iterations", line_no)?,
            "iterations",
            line_no,
        )?;
        let wc: f64 = parse_num(
            field(&parts, 3, "writer_compute_s", line_no)?,
            "writer_compute_s",
            line_no,
        )?;
        let rc: f64 = parse_num(
            field(&parts, 4, "reader_compute_s", line_no)?,
            "reader_compute_s",
            line_no,
        )?;
        let objects: u64 = parse_num(field(&parts, 5, "objects", line_no)?, "objects", line_no)?;
        let object_bytes: u64 = parse_num(
            field(&parts, 6, "object_bytes", line_no)?,
            "object_bytes",
            line_no,
        )?;
        let io = IoPattern {
            objects_per_snapshot: objects,
            object_bytes,
        };
        let spec = WorkflowSpec {
            name,
            writer: ComponentSpec {
                name: "writer".into(),
                compute_per_iteration: wc,
                io,
            },
            reader: ComponentSpec {
                name: "reader".into(),
                compute_per_iteration: rc,
                io,
            },
            ranks,
            iterations,
        };
        spec.validate().map_err(|e| ParseError {
            line: line_no,
            message: e,
        })?;
        out.push(spec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# comment line
lammps-vis, 16, 10, 1.2, 0.1, 64, 4194304
ml-ingest, 8, 20, 0.0, 0.8, 50000, 2048   # trailing comment

";

    #[test]
    fn parses_table() {
        let specs = parse_workflows(SAMPLE).unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].name, "lammps-vis");
        assert_eq!(specs[0].ranks, 16);
        assert_eq!(specs[0].writer.io.object_bytes, 4 << 20);
        assert_eq!(specs[1].reader.compute_per_iteration, 0.8);
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse_workflows("a, 1, 1, 0, 0, 1, 1\nbad-line, 1, 2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("7 comma-separated"));
    }

    #[test]
    fn rejects_bad_numbers_and_invalid_specs() {
        let err = parse_workflows("w, many, 1, 0, 0, 1, 1").unwrap_err();
        assert!(err.message.contains("ranks"));
        // Zero iterations fails spec validation.
        let err = parse_workflows("w, 4, 0, 0, 0, 1, 1").unwrap_err();
        assert!(err.message.contains("positive"));
        // Empty name.
        let err = parse_workflows(" , 4, 1, 0, 0, 1, 1").unwrap_err();
        assert!(err.message.contains("name"));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        assert!(parse_workflows("# nothing\n\n   \n").unwrap().is_empty());
    }
}
