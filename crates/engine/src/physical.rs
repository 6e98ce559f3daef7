//! Local (single-node) physical planning: lowering a [`LogicalPlan`] to an
//! iterator-operator tree.
//!
//! Distributed execution goes through [`crate::DistributedPlan`] instead;
//! the local planner is used by tests, by the threaded executor's
//! per-node fragments, and as the reference implementation that the
//! distributed substrates are checked against (same query, same answer).

use std::collections::HashMap;
use std::sync::Arc;

use gridq_common::{GridError, Result};

use crate::logical::LogicalPlan;
use crate::ops::{BoxedOperator, Filter, HashJoin, OperationCall, Project, TableScan};
use crate::service::ServiceRegistry;
use crate::table::Table;

/// Resolves table names to in-memory tables.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a table under its own name.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_string(), table);
    }

    /// Looks up a table.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(name)
            .cloned()
            .ok_or_else(|| GridError::UnknownTable(name.to_string()))
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// Lowers a logical plan into a runnable operator tree over `catalog`.
pub fn build_operator(
    plan: &LogicalPlan,
    catalog: &Catalog,
    services: &ServiceRegistry,
) -> Result<BoxedOperator> {
    Ok(match plan {
        LogicalPlan::Scan { table, .. } => {
            let table = catalog.get(table)?;
            Box::new(TableScan::new(table))
        }
        LogicalPlan::Filter { input, predicate } => {
            let child = build_operator(input, catalog, services)?;
            Box::new(Filter::new(child, predicate.clone(), services.clone()))
        }
        LogicalPlan::Project {
            input,
            exprs,
            fields,
        } => {
            let child = build_operator(input, catalog, services)?;
            Box::new(Project::new(
                child,
                exprs.clone(),
                fields.clone(),
                services.clone(),
            ))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
        } => {
            let build = build_operator(left, catalog, services)?;
            let probe = build_operator(right, catalog, services)?;
            Box::new(HashJoin::new(build, probe, *left_key, *right_key))
        }
        LogicalPlan::Call {
            input,
            service,
            args,
            output_name,
            keep_input,
            ..
        } => {
            let child = build_operator(input, catalog, services)?;
            let svc = Arc::clone(services.get(service)?);
            Box::new(OperationCall::new(
                child,
                svc,
                args.clone(),
                output_name.clone(),
                *keep_input,
                services.clone(),
            ))
        }
    })
}

/// Runs a logical plan locally and returns all result tuples. The
/// reference execution path.
pub fn execute_local(
    plan: &LogicalPlan,
    catalog: &Catalog,
    services: &ServiceRegistry,
) -> Result<Vec<gridq_common::Tuple>> {
    let mut op = build_operator(plan, catalog, services)?;
    crate::ops::collect(op.as_mut())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::service::FnService;
    use gridq_common::{DataType, Field, Schema, Tuple, Value};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let p_schema = Schema::new(vec![
            Field::new("orf", DataType::Str),
            Field::new("sequence", DataType::Str),
        ]);
        let p_rows = vec![
            Tuple::new(vec![Value::str("o1"), Value::str("MKV")]),
            Tuple::new(vec![Value::str("o2"), Value::str("AAA")]),
        ];
        c.register(Arc::new(
            Table::new("protein_sequences", p_schema, p_rows).unwrap(),
        ));
        let i_schema = Schema::new(vec![
            Field::new("orf1", DataType::Str),
            Field::new("orf2", DataType::Str),
        ]);
        let i_rows = vec![
            Tuple::new(vec![Value::str("o1"), Value::str("o9")]),
            Tuple::new(vec![Value::str("o3"), Value::str("o7")]),
        ];
        c.register(Arc::new(
            Table::new("protein_interactions", i_schema, i_rows).unwrap(),
        ));
        c
    }

    fn services() -> ServiceRegistry {
        let mut reg = ServiceRegistry::new();
        reg.register(Arc::new(FnService::new(
            "Len",
            vec![DataType::Str],
            DataType::Int,
            1.0,
            |args| Ok(Value::Int(args[0].as_str().unwrap().len() as i64)),
        )));
        reg
    }

    #[test]
    fn catalog_lookup() {
        let c = catalog();
        assert!(c.get("protein_sequences").is_ok());
        assert!(matches!(c.get("nope"), Err(GridError::UnknownTable(_))));
        assert!(c.get("protein_interactions").is_ok());
    }

    #[test]
    fn executes_q1_shape_locally() {
        // select Len(p.sequence) from protein_sequences p
        let c = catalog();
        let scan_schema = c.get("protein_sequences").unwrap().schema().qualified("p");
        let plan = LogicalPlan::Call {
            input: Box::new(LogicalPlan::Scan {
                table: "protein_sequences".into(),
                alias: "p".into(),
                schema: scan_schema,
            }),
            service: "Len".into(),
            args: vec![Expr::col(1)],
            output_name: "len".into(),
            keep_input: false,
            schema: Schema::new(vec![Field::new("len", DataType::Int)]),
        };
        let out = execute_local(&plan, &c, &services()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value(0), &Value::Int(3));
    }

    #[test]
    fn executes_q2_shape_locally() {
        // select i.orf2 from protein_sequences p, protein_interactions i
        // where i.orf1 = p.orf
        let c = catalog();
        let p = LogicalPlan::Scan {
            table: "protein_sequences".into(),
            alias: "p".into(),
            schema: c.get("protein_sequences").unwrap().schema().qualified("p"),
        };
        let i = LogicalPlan::Scan {
            table: "protein_interactions".into(),
            alias: "i".into(),
            schema: c
                .get("protein_interactions")
                .unwrap()
                .schema()
                .qualified("i"),
        };
        let join = LogicalPlan::Join {
            left: Box::new(p),
            right: Box::new(i),
            left_key: 0,  // p.orf
            right_key: 0, // i.orf1
        };
        let plan = LogicalPlan::Project {
            input: Box::new(join),
            exprs: vec![Expr::col(3)], // i.orf2
            fields: vec![Field::new("orf2", DataType::Str)],
        };
        let out = execute_local(&plan, &c, &services()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value(0), &Value::str("o9"));
    }

    #[test]
    fn unknown_service_fails_at_build() {
        let c = catalog();
        let plan = LogicalPlan::Call {
            input: Box::new(LogicalPlan::Scan {
                table: "protein_sequences".into(),
                alias: "p".into(),
                schema: c.get("protein_sequences").unwrap().schema().clone(),
            }),
            service: "Missing".into(),
            args: vec![],
            output_name: "x".into(),
            keep_input: false,
            schema: Schema::empty(),
        };
        assert!(build_operator(&plan, &c, &services()).is_err());
    }
}
