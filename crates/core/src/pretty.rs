//! Plain-text rendering of relations and query answers.
//!
//! Used by the examples and the benchmark harnesses to print result tables
//! in the familiar `psql`-like box format.

use crate::database::{Relation, Tuple};

/// Renders a relation as an aligned text table with its name as header.
/// Interned values are resolved back to strings through the relation's
/// attached symbol table.
pub fn render_relation(rel: &Relation) -> String {
    let resolved = rel.resolved();
    render_table(
        resolved.name(),
        resolved.schema().attrs(),
        resolved.iter().cloned().collect::<Vec<_>>().as_slice(),
    )
}

fn render_table(name: &str, attrs: &[String], tuples: &[Tuple]) -> String {
    let mut widths: Vec<usize> = attrs.iter().map(String::len).collect();
    let rendered: Vec<Vec<String>> = tuples
        .iter()
        .map(|t| t.iter().map(|v| v.to_string()).collect())
        .collect();
    for row in &rendered {
        for (i, cell) in row.iter().enumerate() {
            if cell.len() > widths[i] {
                widths[i] = cell.len();
            }
        }
    }
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    let mut out = String::new();
    out.push_str(name);
    if attrs.is_empty() {
        // A Boolean query: render truth value instead of a table.
        out.push_str(if tuples.is_empty() {
            " = false"
        } else {
            " = true"
        });
        return out;
    }
    out.push('\n');
    sep(&mut out);
    out.push('|');
    for (a, w) in attrs.iter().zip(&widths) {
        out.push_str(&format!(" {a:w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in &rendered {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    out.push_str(&format!("({} rows)", tuples.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Relation;
    use crate::schema::TableSchema;

    #[test]
    fn renders_aligned_table() {
        let rel = Relation::from_rows(
            TableSchema::new("Sailor", ["sid", "sname"]),
            vec![
                vec![crate::Value::int(1), crate::Value::str("Dustin")],
                vec![crate::Value::int(2), crate::Value::str("Lubber")],
            ],
        )
        .unwrap();
        let s = render_relation(&rel);
        assert!(s.starts_with("Sailor\n"));
        assert!(s.contains("| sid | sname    |"));
        assert!(s.contains("| 1   | 'Dustin' |"));
        assert!(s.ends_with("(2 rows)"));
    }

    #[test]
    fn renders_boolean_result() {
        let s = render_table("Q", &[], &[]);
        assert_eq!(s, "Q = false");
        let s = render_table("Q", &[], &[Tuple::new(Vec::<crate::Value>::new())]);
        assert_eq!(s, "Q = true");
    }
}
