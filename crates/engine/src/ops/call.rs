//! Operation call: invoking a typed service for each input tuple.

use std::sync::Arc;

use gridq_common::{Field, Result, Schema, Tuple};

use super::{BoxedOperator, Operator};
use crate::expr::Expr;
use crate::service::{Service, ServiceRegistry};

/// Invokes a service once per input tuple, appending (or replacing the
/// tuple with) the result column.
pub struct OperationCall {
    input: BoxedOperator,
    service: Arc<dyn Service>,
    args: Vec<Expr>,
    services: ServiceRegistry,
    /// When true the result column is appended to the input tuple;
    /// otherwise the output is just the result column.
    keep_input: bool,
    schema: Schema,
}

impl OperationCall {
    /// Creates an operation-call operator.
    pub fn new(
        input: BoxedOperator,
        service: Arc<dyn Service>,
        args: Vec<Expr>,
        output_name: impl Into<String>,
        keep_input: bool,
        services: ServiceRegistry,
    ) -> Self {
        let result_field = Field::new(output_name, service.signature().return_type);
        let schema = if keep_input {
            let mut fields = input.schema().fields().to_vec();
            fields.push(result_field);
            Schema::new(fields)
        } else {
            Schema::new(vec![result_field])
        };
        OperationCall {
            input,
            service,
            args,
            services,
            keep_input,
            schema,
        }
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<dyn Service> {
        &self.service
    }
}

impl Operator for OperationCall {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Tuple>> {
        match self.input.next()? {
            None => Ok(None),
            Some(t) => {
                let mut arg_values = Vec::with_capacity(self.args.len());
                for a in &self.args {
                    arg_values.push(a.eval(&t, &self.services)?);
                }
                let result = self.service.invoke(&arg_values)?;
                let out = if self.keep_input {
                    let mut values = t.values().to_vec();
                    values.push(result);
                    Tuple::with_seq(values, t.seq())
                } else {
                    Tuple::with_seq(vec![result], t.seq())
                };
                Ok(Some(out))
            }
        }
    }

    fn name(&self) -> &'static str {
        "op_call"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{int_table, square};
    use crate::ops::{collect, TableScan};
    use crate::table::Table;
    use gridq_common::Value;

    fn setup() -> (Arc<Table>, Arc<dyn Service>) {
        (int_table("t", [1, 2]), square(2.0))
    }

    #[test]
    fn replaces_tuple_with_result() {
        let (table, svc) = setup();
        let scan = Box::new(TableScan::new(table));
        let mut call = OperationCall::new(
            scan,
            svc,
            vec![Expr::col(0)],
            "sq",
            false,
            ServiceRegistry::new(),
        );
        let out = collect(&mut call).unwrap();
        assert_eq!(out[0].values(), &[Value::Int(1)]);
        assert_eq!(out[1].values(), &[Value::Int(4)]);
        assert_eq!(call.schema().len(), 1);
        assert_eq!(call.schema().field(0).name, "sq");
    }

    #[test]
    fn keep_input_appends() {
        let (table, svc) = setup();
        let scan = Box::new(TableScan::new(table));
        let mut call = OperationCall::new(
            scan,
            svc,
            vec![Expr::col(0)],
            "sq",
            true,
            ServiceRegistry::new(),
        );
        let out = collect(&mut call).unwrap();
        assert_eq!(out[0].values(), &[Value::Int(1), Value::Int(1)]);
        assert_eq!(out[0].seq(), 0);
        assert_eq!(call.schema().len(), 2);
    }
}
