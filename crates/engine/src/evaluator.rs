//! Partition evaluators: the per-node unit of a partitioned subplan.
//!
//! When the optimiser partitions an operator across `n` nodes, each node
//! evaluates one *clone* of the subplan over its share of the data. A
//! [`PartitionEvaluator`] is that clone: it consumes routed tuples one at a
//! time, produces output tuples, and reports the *base* per-tuple
//! processing cost (milliseconds on an unperturbed reference node) which
//! the execution substrate scales by the hosting node's current
//! performance.
//!
//! Stateful evaluators (hash join) additionally support extracting the
//! state belonging to a set of hash buckets, which is how retrospective
//! (R1) adaptations migrate operator state between nodes.

use std::collections::{hash_map, HashMap, HashSet};
use std::sync::Arc;

use gridq_common::cast::index_to_u32;
use gridq_common::dist::bucket_for_hash;
use gridq_common::{Field, GridError, Result, Schema, Tuple, Value};

use crate::expr::Expr;
use crate::service::{Service, ServiceRegistry};

/// Identifies which input stream of a multi-input stage a tuple belongs
/// to. Single-input stages use [`StreamTag::Single`]; hash joins consume a
/// build and a probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamTag {
    /// The only input of a single-input stage.
    Single,
    /// The build (state-forming) input of a join.
    Build,
    /// The probe input of a join.
    Probe,
}

/// The result of processing one tuple.
#[derive(Debug, Clone)]
pub struct ProcessOutcome {
    /// Output tuples produced (possibly empty).
    pub outputs: Vec<Tuple>,
    /// Base processing cost in milliseconds on an unperturbed node.
    pub base_cost_ms: f64,
}

/// One clone of a partitioned subplan.
pub trait PartitionEvaluator: Send {
    /// The output schema.
    fn schema(&self) -> &Schema;

    /// Processes one routed input tuple.
    fn process(&mut self, stream: StreamTag, tuple: &Tuple) -> Result<ProcessOutcome>;

    /// Called when an input stream is exhausted; may emit trailing
    /// outputs (none for the operators used here, but part of the
    /// contract).
    fn finish_stream(&mut self, _stream: StreamTag) -> Result<Vec<Tuple>> {
        Ok(Vec::new())
    }

    /// True if the evaluator accumulates operator state (e.g. a hash
    /// table). Stateful evaluators require retrospective redistribution
    /// for correctness when the routing of their build stream changes.
    fn is_stateful(&self) -> bool {
        false
    }

    /// The hash of the key `tuple` routes on as part of `stream` — the
    /// hash the exchange's bucket map sees, so
    /// [`gridq_common::dist::bucket_for_hash`] of it is the tuple's
    /// bucket. `None` when the evaluator keys nothing on that stream.
    fn key_hash(&self, _stream: StreamTag, _tuple: &Tuple) -> Option<u64> {
        None
    }

    /// Removes and returns the state tuples belonging to the given hash
    /// buckets ([`gridq_common::dist::bucket_for_hash`] of the key's
    /// `stable_hash`). The returned tuples are re-routed to the buckets'
    /// new owners and replayed there through
    /// [`PartitionEvaluator::process`]. Stateless evaluators return
    /// nothing.
    fn extract_state(&mut self, _bucket_count: u32, _buckets: &[u32]) -> Vec<(StreamTag, Tuple)> {
        Vec::new()
    }

    /// Number of state tuples currently held.
    fn state_size(&self) -> usize {
        0
    }
}

/// Creates fresh evaluator clones, one per partition.
pub trait EvaluatorFactory: Send + Sync {
    /// The output schema of every clone.
    fn schema(&self) -> &Schema;

    /// Creates a clone for partition `index`.
    fn create(&self, index: u32) -> Box<dyn PartitionEvaluator>;

    /// True if clones hold operator state.
    fn stateful(&self) -> bool;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Service-call evaluator (Q1's EntropyAnalyser web-service invocation).
// ---------------------------------------------------------------------------

/// Evaluates an operation call: one service invocation per tuple.
pub struct ServiceCallEvaluator {
    service: Arc<dyn Service>,
    args: Vec<Expr>,
    services: ServiceRegistry,
    keep_input: bool,
    schema: Schema,
}

impl ServiceCallEvaluator {
    fn output_schema(
        input_schema: &Schema,
        service: &Arc<dyn Service>,
        output_name: &str,
        keep_input: bool,
    ) -> Schema {
        let result_field = Field::new(output_name, service.signature().return_type);
        if keep_input {
            let mut fields = input_schema.fields().to_vec();
            fields.push(result_field);
            Schema::new(fields)
        } else {
            Schema::new(vec![result_field])
        }
    }
}

impl PartitionEvaluator for ServiceCallEvaluator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn process(&mut self, stream: StreamTag, tuple: &Tuple) -> Result<ProcessOutcome> {
        if stream != StreamTag::Single {
            return Err(GridError::Execution(format!(
                "service-call evaluator received {stream:?} stream"
            )));
        }
        let mut arg_values = Vec::with_capacity(self.args.len());
        for a in &self.args {
            arg_values.push(a.eval(tuple, &self.services)?);
        }
        let result = self.service.invoke(&arg_values)?;
        let out = if self.keep_input {
            let mut values = tuple.values().to_vec();
            values.push(result);
            Tuple::with_seq(values, tuple.seq())
        } else {
            Tuple::with_seq(vec![result], tuple.seq())
        };
        Ok(ProcessOutcome {
            outputs: vec![out],
            base_cost_ms: self.service.base_cost_ms(),
        })
    }
}

/// Factory for [`ServiceCallEvaluator`] clones.
pub struct ServiceCallFactory {
    service: Arc<dyn Service>,
    args: Vec<Expr>,
    services: ServiceRegistry,
    keep_input: bool,
    schema: Schema,
}

impl ServiceCallFactory {
    /// Creates a factory. `args` are bound against the input schema;
    /// `output_name` names the result column.
    pub fn new(
        input_schema: &Schema,
        service: Arc<dyn Service>,
        args: Vec<Expr>,
        output_name: &str,
        keep_input: bool,
        services: ServiceRegistry,
    ) -> Self {
        let schema =
            ServiceCallEvaluator::output_schema(input_schema, &service, output_name, keep_input);
        ServiceCallFactory {
            service,
            args,
            services,
            keep_input,
            schema,
        }
    }
}

impl EvaluatorFactory for ServiceCallFactory {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn create(&self, _index: u32) -> Box<dyn PartitionEvaluator> {
        Box::new(ServiceCallEvaluator {
            service: Arc::clone(&self.service),
            args: self.args.clone(),
            services: self.services.clone(),
            keep_input: self.keep_input,
            schema: self.schema.clone(),
        })
    }

    fn stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "op_call"
    }
}

// ---------------------------------------------------------------------------
// Hash-join evaluator (Q2's partitioned join).
// ---------------------------------------------------------------------------

/// One build tuple in a [`BuildArena`].
struct ArenaEntry {
    tuple: Tuple,
    /// `stable_hash` of the tuple's join key.
    hash: u64,
    /// The next entry with the same key hash, if any.
    next: Option<u32>,
}

/// The first and last entry of one key hash's chain.
struct Chain {
    first: u32,
    last: u32,
}

/// The build side of one join partition: every build tuple in one `Vec`,
/// in arrival order, each entry linked to the next entry with the same
/// key hash, and one map from key hash to its chain's ends. A key costs
/// no allocation of its own, and the table is freed front to back in the
/// order it was allocated.
#[derive(Default)]
struct BuildArena {
    entries: Vec<ArenaEntry>,
    chains: HashMap<u64, Chain>,
}

impl BuildArena {
    /// Appends `tuple` to the arena and to the end of `hash`'s chain.
    fn push(&mut self, hash: u64, tuple: Tuple) -> Result<()> {
        let at = index_to_u32(self.entries.len())?;
        self.entries.push(ArenaEntry {
            tuple,
            hash,
            next: None,
        });
        self.link(at);
        Ok(())
    }

    /// Appends entry `at`, the last entry linked so far, to the end of its
    /// key hash's chain.
    fn link(&mut self, at: u32) {
        let entry = &mut self.entries[at as usize];
        entry.next = None;
        match self.chains.entry(entry.hash) {
            hash_map::Entry::Occupied(mut chain) => {
                let chain = chain.get_mut();
                self.entries[chain.last as usize].next = Some(at);
                chain.last = at;
            }
            hash_map::Entry::Vacant(slot) => {
                slot.insert(Chain {
                    first: at,
                    last: at,
                });
            }
        }
    }

    /// The tuples whose key hashes to `hash`, in arrival order.
    fn chain(&self, hash: u64) -> impl Iterator<Item = &Tuple> {
        let mut at = self.chains.get(&hash).map(|chain| chain.first);
        std::iter::from_fn(move || {
            let entry = &self.entries[at? as usize];
            at = entry.next;
            Some(&entry.tuple)
        })
    }

    /// Removes the tuples whose key hash `leaves` selects and returns them
    /// in arrival order. The tuples that stay keep their order and are
    /// compacted in place, then re-linked.
    fn split_off(&mut self, leaves: impl Fn(u64) -> bool) -> Vec<Tuple> {
        let leaving = self
            .entries
            .extract_if(.., |entry| leaves(entry.hash))
            .map(|entry| entry.tuple)
            .collect();
        self.chains.clear();
        // Every index below the arena's old length fitted a `u32`.
        for at in (0..).take(self.entries.len()) {
            self.link(at);
        }
        leaving
    }
}

/// Evaluates one partition of a distributed hash join. Build tuples are
/// appended to the local build arena; probe tuples are matched against
/// it. Both streams are hash-partitioned on the join key, so each clone
/// sees a disjoint key range. An optional projection over the joined
/// schema is applied to every output (pushing `SELECT` columns into the
/// partitioned stage keeps result buffers small).
pub struct HashJoinEvaluator {
    build_key: usize,
    probe_key: usize,
    build: BuildArena,
    build_cost_ms: f64,
    probe_cost_ms: f64,
    projection: Option<Vec<Expr>>,
    services: ServiceRegistry,
    schema: Schema,
}

impl HashJoinEvaluator {
    fn project_out(&self, joined: Tuple) -> Result<Tuple> {
        match &self.projection {
            None => Ok(joined),
            Some(exprs) => {
                let mut values = Vec::with_capacity(exprs.len());
                for e in exprs {
                    values.push(e.eval(&joined, &self.services)?);
                }
                Ok(Tuple::with_seq(values, joined.seq()))
            }
        }
    }
}

impl PartitionEvaluator for HashJoinEvaluator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn process(&mut self, stream: StreamTag, tuple: &Tuple) -> Result<ProcessOutcome> {
        match stream {
            StreamTag::Build => {
                let key = tuple.value(self.build_key);
                if !key.is_null() {
                    self.build.push(key.stable_hash(), tuple.clone())?;
                }
                Ok(ProcessOutcome {
                    outputs: Vec::new(),
                    base_cost_ms: self.build_cost_ms,
                })
            }
            StreamTag::Probe => {
                let key: &Value = tuple.value(self.probe_key);
                let mut outputs = Vec::new();
                if !key.is_null() {
                    for b in self.build.chain(key.stable_hash()) {
                        if b.value(self.build_key).sql_eq(key) {
                            // The probe tuple drives the output: its
                            // sequence number identifies the result for
                            // acknowledgement and failure deduplication.
                            outputs.push(self.project_out(b.concat_with_seq(tuple, tuple.seq()))?);
                        }
                    }
                }
                Ok(ProcessOutcome {
                    outputs,
                    base_cost_ms: self.probe_cost_ms,
                })
            }
            StreamTag::Single => Err(GridError::Execution(
                "hash-join evaluator requires Build/Probe streams".into(),
            )),
        }
    }

    fn is_stateful(&self) -> bool {
        true
    }

    fn key_hash(&self, stream: StreamTag, tuple: &Tuple) -> Option<u64> {
        let col = match stream {
            StreamTag::Build => self.build_key,
            StreamTag::Probe => self.probe_key,
            StreamTag::Single => return None,
        };
        Some(tuple.value(col).stable_hash())
    }

    fn extract_state(&mut self, bucket_count: u32, buckets: &[u32]) -> Vec<(StreamTag, Tuple)> {
        let wanted: HashSet<u32> = buckets.iter().copied().collect();
        self.build
            .split_off(|hash| wanted.contains(&bucket_for_hash(hash, bucket_count)))
            .into_iter()
            .map(|t| (StreamTag::Build, t))
            .collect()
    }

    fn state_size(&self) -> usize {
        self.build.entries.len()
    }
}

/// Factory for [`HashJoinEvaluator`] clones.
pub struct HashJoinFactory {
    build_key: usize,
    probe_key: usize,
    build_cost_ms: f64,
    probe_cost_ms: f64,
    projection: Option<Vec<Expr>>,
    services: ServiceRegistry,
    schema: Schema,
}

impl HashJoinFactory {
    /// Creates a factory joining `build[build_key] = probe[probe_key]`.
    /// Costs are base per-tuple milliseconds for inserting a build tuple
    /// and probing with a probe tuple.
    pub fn new(
        build_schema: &Schema,
        probe_schema: &Schema,
        build_key: usize,
        probe_key: usize,
        build_cost_ms: f64,
        probe_cost_ms: f64,
    ) -> Self {
        HashJoinFactory {
            build_key,
            probe_key,
            build_cost_ms,
            probe_cost_ms,
            projection: None,
            services: ServiceRegistry::new(),
            schema: build_schema.join(probe_schema),
        }
    }

    /// Adds an output projection. `exprs` are bound against the joined
    /// schema (build columns then probe columns); `fields` names the
    /// projected output columns.
    pub fn with_projection(
        mut self,
        exprs: Vec<Expr>,
        fields: Vec<Field>,
        services: ServiceRegistry,
    ) -> Self {
        debug_assert_eq!(exprs.len(), fields.len());
        self.projection = Some(exprs);
        self.services = services;
        self.schema = Schema::new(fields);
        self
    }
}

impl EvaluatorFactory for HashJoinFactory {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn create(&self, _index: u32) -> Box<dyn PartitionEvaluator> {
        Box::new(HashJoinEvaluator {
            build_key: self.build_key,
            probe_key: self.probe_key,
            build: BuildArena::default(),
            build_cost_ms: self.build_cost_ms,
            probe_cost_ms: self.probe_cost_ms,
            projection: self.projection.clone(),
            services: self.services.clone(),
            schema: self.schema.clone(),
        })
    }

    fn stateful(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "hash_join"
    }
}

// ---------------------------------------------------------------------------
// Filter/project evaluator (stateless pipelines).
// ---------------------------------------------------------------------------

/// Evaluates an optional predicate followed by an optional projection,
/// with a fixed base cost per tuple. Used for pushed-down
/// selections/projections inside a partitioned stage.
pub struct FilterMapEvaluator {
    predicate: Option<Expr>,
    projection: Option<Vec<Expr>>,
    services: ServiceRegistry,
    base_cost_ms: f64,
    schema: Schema,
}

impl PartitionEvaluator for FilterMapEvaluator {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn process(&mut self, stream: StreamTag, tuple: &Tuple) -> Result<ProcessOutcome> {
        if stream != StreamTag::Single {
            return Err(GridError::Execution(format!(
                "filter-map evaluator received {stream:?} stream"
            )));
        }
        if let Some(pred) = &self.predicate {
            if !pred.eval_predicate(tuple, &self.services)? {
                return Ok(ProcessOutcome {
                    outputs: Vec::new(),
                    base_cost_ms: self.base_cost_ms,
                });
            }
        }
        let out = match &self.projection {
            None => tuple.clone(),
            Some(exprs) => {
                let mut values = Vec::with_capacity(exprs.len());
                for e in exprs {
                    values.push(e.eval(tuple, &self.services)?);
                }
                Tuple::with_seq(values, tuple.seq())
            }
        };
        Ok(ProcessOutcome {
            outputs: vec![out],
            base_cost_ms: self.base_cost_ms,
        })
    }
}

/// Factory for [`FilterMapEvaluator`] clones.
pub struct FilterMapFactory {
    predicate: Option<Expr>,
    projection: Option<Vec<Expr>>,
    services: ServiceRegistry,
    base_cost_ms: f64,
    schema: Schema,
}

impl FilterMapFactory {
    /// Creates a factory. When `projection` is `Some`, `fields` names the
    /// output columns; otherwise the input schema passes through.
    pub fn new(
        input_schema: &Schema,
        predicate: Option<Expr>,
        projection: Option<(Vec<Expr>, Vec<Field>)>,
        base_cost_ms: f64,
        services: ServiceRegistry,
    ) -> Self {
        let (projection, schema) = match projection {
            None => (None, input_schema.clone()),
            Some((exprs, fields)) => (Some(exprs), Schema::new(fields)),
        };
        FilterMapFactory {
            predicate,
            projection,
            services,
            base_cost_ms,
            schema,
        }
    }
}

impl EvaluatorFactory for FilterMapFactory {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn create(&self, _index: u32) -> Box<dyn PartitionEvaluator> {
        Box::new(FilterMapEvaluator {
            predicate: self.predicate.clone(),
            projection: self.projection.clone(),
            services: self.services.clone(),
            base_cost_ms: self.base_cost_ms,
            schema: self.schema.clone(),
        })
    }

    fn stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "filter_map"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::square;
    use gridq_common::DataType;

    fn str_schema(name: &str) -> Schema {
        Schema::new(vec![Field::new(name, DataType::Str)])
    }

    #[test]
    // Configured base costs are stored, never computed: exact round-trip.
    #[allow(clippy::float_cmp)]
    fn service_call_evaluator_invokes() {
        let input = Schema::new(vec![Field::new("x", DataType::Int)]);
        let factory = ServiceCallFactory::new(
            &input,
            square(3.0),
            vec![Expr::col(0)],
            "sq",
            false,
            ServiceRegistry::new(),
        );
        assert!(!factory.stateful());
        let mut eval = factory.create(0);
        let out = eval
            .process(StreamTag::Single, &Tuple::new(vec![Value::Int(5)]))
            .unwrap();
        assert_eq!(out.outputs[0].values(), &[Value::Int(25)]);
        assert_eq!(out.base_cost_ms, 3.0);
        assert_eq!(eval.state_size(), 0);
    }

    #[test]
    fn service_call_rejects_wrong_stream() {
        let input = Schema::new(vec![Field::new("x", DataType::Int)]);
        let factory = ServiceCallFactory::new(
            &input,
            square(3.0),
            vec![Expr::col(0)],
            "sq",
            false,
            ServiceRegistry::new(),
        );
        let mut eval = factory.create(0);
        assert!(eval
            .process(StreamTag::Build, &Tuple::new(vec![Value::Int(1)]))
            .is_err());
    }

    #[test]
    // Configured base costs are stored, never computed: exact round-trip.
    #[allow(clippy::float_cmp)]
    fn hash_join_evaluator_builds_then_probes() {
        let factory = HashJoinFactory::new(&str_schema("orf"), &str_schema("orf1"), 0, 0, 0.1, 2.0);
        assert!(factory.stateful());
        let mut eval = factory.create(0);
        let b = eval
            .process(StreamTag::Build, &Tuple::new(vec![Value::str("a")]))
            .unwrap();
        assert!(b.outputs.is_empty());
        assert_eq!(b.base_cost_ms, 0.1);
        assert_eq!(eval.state_size(), 1);
        let p = eval
            .process(StreamTag::Probe, &Tuple::new(vec![Value::str("a")]))
            .unwrap();
        assert_eq!(p.outputs.len(), 1);
        assert_eq!(p.base_cost_ms, 2.0);
        let miss = eval
            .process(StreamTag::Probe, &Tuple::new(vec![Value::str("z")]))
            .unwrap();
        assert!(miss.outputs.is_empty());
    }

    #[test]
    fn hash_join_state_extraction_roundtrip() {
        let factory = HashJoinFactory::new(&str_schema("k"), &str_schema("k2"), 0, 0, 0.1, 1.0);
        let mut a = factory.create(0);
        let keys = ["a", "b", "c", "d", "e", "f"];
        for k in keys {
            a.process(StreamTag::Build, &Tuple::new(vec![Value::str(k)]))
                .unwrap();
        }
        assert_eq!(a.state_size(), 6);
        let bucket_count = 4;
        let moved = a.extract_state(bucket_count, &[0, 1]);
        // Extracted + remaining must cover all keys exactly once.
        assert_eq!(moved.len() + a.state_size(), 6);
        // Replay the moved state into a second clone: probes for moved
        // keys now succeed there and fail on the original.
        let mut b = factory.create(1);
        for (tag, t) in &moved {
            b.process(*tag, t).unwrap();
        }
        for (_, t) in &moved {
            let probe = Tuple::new(vec![t.value(0).clone()]);
            assert_eq!(
                b.process(StreamTag::Probe, &probe).unwrap().outputs.len(),
                1
            );
            assert!(a
                .process(StreamTag::Probe, &probe)
                .unwrap()
                .outputs
                .is_empty());
        }
    }

    #[test]
    fn extracted_state_comes_back_in_arrival_order() {
        let build_schema = Schema::new(vec![
            Field::new("k", DataType::Int),
            Field::new("arrival", DataType::Int),
        ]);
        let probe_schema = Schema::new(vec![Field::new("k2", DataType::Int)]);
        let factory = HashJoinFactory::new(&build_schema, &probe_schema, 0, 0, 0.1, 1.0);
        let mut eval = factory.create(0);
        let build: Vec<Tuple> = (0..60)
            .map(|i| Tuple::with_seq(vec![Value::Int(i % 9), Value::Int(i)], i as u64))
            .collect();
        for t in &build {
            eval.process(StreamTag::Build, t).unwrap();
        }
        let (bucket_count, leaving) = (4, [1, 3]);
        let bucket = |t: &Tuple| bucket_for_hash(t.value(0).stable_hash(), bucket_count);
        let moved: Vec<Tuple> = eval
            .extract_state(bucket_count, &leaving)
            .into_iter()
            .map(|(tag, t)| {
                assert_eq!(tag, StreamTag::Build);
                t
            })
            .collect();
        let (expected, stayed): (Vec<Tuple>, Vec<Tuple>) = build
            .iter()
            .cloned()
            .partition(|t| leaving.contains(&bucket(t)));
        assert!(!expected.is_empty() && !stayed.is_empty());
        assert_eq!(moved, expected);
        assert_eq!(eval.state_size(), stayed.len());
        // The tuples that stay still match in arrival order.
        let key = stayed[0].value(0).clone();
        let probe = Tuple::with_seq(vec![key.clone()], 99);
        let arrivals: Vec<&Value> = stayed
            .iter()
            .filter(|t| t.value(0) == &key)
            .map(|t| t.value(1))
            .collect();
        let out = eval.process(StreamTag::Probe, &probe).unwrap().outputs;
        assert_eq!(out.iter().map(|t| t.value(1)).collect::<Vec<_>>(), arrivals);
        assert!(out.iter().all(|t| t.seq() == 99));
    }

    #[test]
    fn hash_join_projection_applies_to_outputs() {
        let factory = HashJoinFactory::new(&str_schema("k"), &str_schema("k2"), 0, 0, 0.1, 1.0)
            .with_projection(
                vec![Expr::col(1)],
                vec![Field::new("k2", DataType::Str)],
                ServiceRegistry::new(),
            );
        assert_eq!(factory.schema().len(), 1);
        let mut eval = factory.create(0);
        eval.process(StreamTag::Build, &Tuple::new(vec![Value::str("a")]))
            .unwrap();
        let out = eval
            .process(StreamTag::Probe, &Tuple::new(vec![Value::str("a")]))
            .unwrap();
        assert_eq!(out.outputs[0].values(), &[Value::str("a")]);
        assert_eq!(out.outputs[0].arity(), 1);
    }

    #[test]
    fn null_build_keys_are_dropped() {
        let factory = HashJoinFactory::new(&str_schema("k"), &str_schema("k2"), 0, 0, 0.1, 1.0);
        let mut eval = factory.create(0);
        eval.process(StreamTag::Build, &Tuple::new(vec![Value::Null]))
            .unwrap();
        assert_eq!(eval.state_size(), 0);
    }

    #[test]
    // Configured base costs are stored, never computed: exact round-trip.
    #[allow(clippy::float_cmp)]
    fn filter_map_evaluator() {
        let input = Schema::new(vec![Field::new("x", DataType::Int)]);
        let pred = Expr::Binary {
            op: crate::expr::BinOp::Gt,
            left: Box::new(Expr::col(0)),
            right: Box::new(Expr::lit(2i64)),
        };
        let factory = FilterMapFactory::new(&input, Some(pred), None, 0.5, ServiceRegistry::new());
        let mut eval = factory.create(0);
        let pass = eval
            .process(StreamTag::Single, &Tuple::new(vec![Value::Int(3)]))
            .unwrap();
        assert_eq!(pass.outputs.len(), 1);
        let drop = eval
            .process(StreamTag::Single, &Tuple::new(vec![Value::Int(1)]))
            .unwrap();
        assert!(drop.outputs.is_empty());
        assert_eq!(drop.base_cost_ms, 0.5);
    }

    #[test]
    fn finish_stream_default_is_empty() {
        let input = Schema::new(vec![Field::new("x", DataType::Int)]);
        let factory = FilterMapFactory::new(&input, None, None, 0.0, ServiceRegistry::new());
        let mut eval = factory.create(0);
        assert!(eval.finish_stream(StreamTag::Single).unwrap().is_empty());
    }
}
