//! Iterator-model (Volcano) physical operators.
//!
//! Each operator pulls tuples from its children via [`Operator::next`].

mod call;
mod filter;
mod join;
mod project;
mod scan;

pub use call::OperationCall;
pub use filter::Filter;
pub use join::HashJoin;
pub use project::Project;
pub use scan::TableScan;

use gridq_common::{Result, Schema, Tuple};

/// A physical operator in the iterator model.
pub trait Operator {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// Produces the next output tuple, or `None` when exhausted.
    fn next(&mut self) -> Result<Option<Tuple>>;

    /// A short name for plan display (`scan`, `filter`, ...).
    fn name(&self) -> &'static str;
}

/// A boxed operator, the unit of plan composition.
pub type BoxedOperator = Box<dyn Operator + Send>;

/// Drains an operator into a vector. Convenience for tests and local
/// (single-node) execution.
pub fn collect(op: &mut dyn Operator) -> Result<Vec<Tuple>> {
    let mut out = Vec::new();
    while let Some(t) = op.next()? {
        out.push(t);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use gridq_common::{DataType, Field, Value};
    use std::sync::Arc;

    #[test]
    fn collect_drains() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let table = Arc::new(
            Table::new(
                "t",
                schema,
                vec![
                    Tuple::new(vec![Value::Int(1)]),
                    Tuple::new(vec![Value::Int(2)]),
                ],
            )
            .unwrap(),
        );
        let mut scan = TableScan::new(table);
        let rows = collect(&mut scan).unwrap();
        assert_eq!(rows.len(), 2);
        // Exhausted operators keep returning None.
        assert!(scan.next().unwrap().is_none());
    }
}
