//! Logical query plans.
//!
//! The binder (in `gridq-sql`) lowers parsed queries into this
//! representation; the optimiser/scheduler (in `gridq-core`) turns it into
//! a [`crate::DistributedPlan`] and the local planner
//! (in [`crate::physical`]) into an iterator-operator tree.

use std::fmt;

use gridq_common::{Field, Result, Schema};

use crate::expr::Expr;

/// A logical plan node. Column references in contained expressions are
/// bound positionally against the input schema.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// A base-table scan.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Alias used for qualification (defaults to the table name).
        alias: String,
        /// The (alias-qualified) output schema.
        schema: Schema,
    },
    /// A selection.
    Filter {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Boolean predicate over the input schema.
        predicate: Expr,
    },
    /// A projection.
    Project {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Output expressions over the input schema.
        exprs: Vec<Expr>,
        /// Output column names/types.
        fields: Vec<Field>,
    },
    /// An equi-join.
    Join {
        /// Left (build) input.
        left: Box<LogicalPlan>,
        /// Right (probe) input.
        right: Box<LogicalPlan>,
        /// Join key column in the left schema.
        left_key: usize,
        /// Join key column in the right schema.
        right_key: usize,
    },
    /// An operation call: invoke a service per input tuple.
    Call {
        /// Input plan.
        input: Box<LogicalPlan>,
        /// Registered service name.
        service: String,
        /// Argument expressions over the input schema.
        args: Vec<Expr>,
        /// Output column name for the result.
        output_name: String,
        /// Whether input columns are preserved alongside the result.
        keep_input: bool,
        /// The output schema (computed at bind time from the service
        /// signature).
        schema: Schema,
    },
}

impl LogicalPlan {
    /// The output schema of this plan node.
    pub fn schema(&self) -> Result<Schema> {
        Ok(match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema()?,
            LogicalPlan::Project { fields, .. } => Schema::new(fields.clone()),
            LogicalPlan::Join { left, right, .. } => left.schema()?.join(&right.schema()?),
            LogicalPlan::Call { schema, .. } => schema.clone(),
        })
    }

    /// The child plans, in order.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } => Vec::new(),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Call { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Pretty-prints the plan as an indented tree.
    pub fn display_tree(&self) -> String {
        let mut out = String::new();
        self.fmt_tree(&mut out, 0);
        out
    }

    fn fmt_tree(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        match self {
            LogicalPlan::Scan { table, alias, .. } => {
                out.push_str(&format!("Scan {table} as {alias}\n"));
            }
            LogicalPlan::Filter { predicate, .. } => {
                out.push_str(&format!("Filter {predicate}\n"));
            }
            LogicalPlan::Project { exprs, .. } => {
                let list: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                out.push_str(&format!("Project {}\n", list.join(", ")));
            }
            LogicalPlan::Join {
                left_key,
                right_key,
                ..
            } => {
                out.push_str(&format!("Join left#{left_key} = right#{right_key}\n"));
            }
            LogicalPlan::Call {
                service,
                args,
                keep_input,
                ..
            } => {
                let list: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                out.push_str(&format!(
                    "Call {service}({}){}\n",
                    list.join(", "),
                    if *keep_input { " keep-input" } else { "" }
                ));
            }
        }
        for child in self.children() {
            child.fmt_tree(out, depth + 1);
        }
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.display_tree())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridq_common::DataType;

    fn scan(table: &str, cols: &[&str]) -> LogicalPlan {
        let fields = cols
            .iter()
            .map(|c| Field::new(format!("{table}.{c}"), DataType::Str))
            .collect();
        LogicalPlan::Scan {
            table: table.to_string(),
            alias: table.to_string(),
            schema: Schema::new(fields),
        }
    }

    #[test]
    fn schema_propagates() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("p", &["orf", "sequence"])),
            predicate: Expr::lit(true),
        };
        assert_eq!(plan.schema().unwrap().len(), 2);
    }

    #[test]
    fn join_schema_concatenates() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan("p", &["orf"])),
            right: Box::new(scan("i", &["orf1", "orf2"])),
            left_key: 0,
            right_key: 0,
        };
        let schema = plan.schema().unwrap();
        assert_eq!(schema.len(), 3);
        assert_eq!(schema.field(2).name, "i.orf2");
    }

    #[test]
    fn display_tree_shape() {
        let plan = LogicalPlan::Project {
            input: Box::new(scan("p", &["orf"])),
            exprs: vec![Expr::col(0)],
            fields: vec![Field::new("orf", DataType::Str)],
        };
        let tree = plan.display_tree();
        assert!(tree.starts_with("Project #0\n"));
        assert!(tree.contains("  Scan p as p\n"));
    }
}
