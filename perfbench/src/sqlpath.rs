//! The SQL client path shared by `sql_feedback` and `sql_durable_churn`:
//! a statement stream through `Db::execute`, the public counters read
//! around it, and the traced replay of each statement through the layers'
//! own entry points (parser, feature function, dataflow graph, classifier
//! engine, durable store, epoch publisher, trainer, scoring kernel).

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use hazy_core::{
    Architecture, DurableClassifierView, DurableView, Entity, EpochCell, EpochPublisher, Mode,
    ViewBuilder,
};
use hazy_flow::{Dataflow, Delta, NodeId};
use hazy_learn::{SgdConfig, SgdTrainer, TrainingExample};
use hazy_linalg::{FeatureVec, NormPair};
use hazy_rdbms::features::{by_name, FeatureFunction};
use hazy_rdbms::{parse_statement, Db, QueryResult, Row, Schema, Value};
use hazy_storage::SimFs;

use crate::measure::{cpu_us, ns_since, peak_rss_mb, StreamOut};
use crate::report::{LayerReport, RoundOut};
use crate::trace::{p50, Tracer};

/// Dictionary headroom the database gives text feature functions.
const DICT_CAPACITY: u32 = 1 << 16;
/// Logged operations between the checkpoints of a `DURABLE` view.
const CHECKPOINT_EVERY: u64 = 256;

/// What one statement does, in the generator's terms.
#[derive(Clone, Debug)]
pub enum SqlOp {
    InsertEntity { id: i64, row: Row },
    UpdateEntity { id: i64, sets: Vec<(usize, Value)> },
    DeleteEntity { id: i64 },
    Feedback { id: i64, label: i8 },
    SelectLabel { id: i64 },
    SelectCount,
}

/// The answer a statement must produce, known to the generator.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    Done,
    /// A label for an entity that exists.
    Present,
    /// No label: the entity was deleted or never existed.
    Absent,
    Count(u64),
}

impl Expect {
    pub fn accepts(&self, r: &QueryResult) -> bool {
        match (self, r) {
            (Expect::Done, QueryResult::Done) => true,
            (Expect::Present, QueryResult::Label(Some(l))) => *l == 1 || *l == -1,
            (Expect::Absent, QueryResult::Label(None)) => true,
            (Expect::Count(n), QueryResult::Count(m)) => n == m,
            _ => false,
        }
    }
}

#[derive(Clone, Debug)]
pub struct Stmt {
    pub sql: String,
    pub op: SqlOp,
    pub expect: Expect,
}

impl Stmt {
    pub fn is_read(&self) -> bool {
        matches!(self.op, SqlOp::SelectLabel { .. } | SqlOp::SelectCount)
    }
}

/// A SQL workload's generated inputs: the schema and load statements, the
/// view declaration, and the measured statement stream.
pub struct SqlInputs {
    pub view: &'static str,
    pub schema: Schema,
    pub feature_fn: &'static str,
    pub arch: Architecture,
    pub durable: bool,
    /// Statements run before the view is declared (DDL and base rows).
    pub load: Vec<String>,
    /// The `CREATE CLASSIFICATION VIEW` statement.
    pub create_view: String,
    /// Entity rows present when the view is declared, by key.
    pub entities: Vec<(i64, Row)>,
    /// Training examples present when the view is declared.
    pub warm: Vec<(i64, i8)>,
    pub stream: Vec<Stmt>,
}

impl SqlInputs {
    pub fn writes(&self) -> usize {
        self.stream.iter().filter(|s| !s.is_read()).count()
    }
}

/// Loads the base tables and declares the view.
pub fn setup(inp: &SqlInputs) -> Db {
    let mut db = Db::new();
    for sql in inp.load.iter().chain(std::iter::once(&inp.create_view)) {
        db.execute(sql)
            .unwrap_or_else(|e| panic!("set-up statement failed: {e}: {sql}"));
    }
    db
}

/// Runs the stream through `Db::execute`, timing each statement and
/// checking each answer against what the generator expects.
pub fn run_stream(db: &mut Db, stream: &[Stmt]) -> StreamOut {
    let mut out = StreamOut::default();
    let cpu0 = cpu_us();
    let t0 = Instant::now();
    for s in stream {
        let t = Instant::now();
        let r = db.execute(&s.sql);
        let ns = ns_since(t);
        out.record(s.is_read(), ns, matches!(&r, Ok(q) if s.expect.accepts(q)));
    }
    out.wall_ns = ns_since(t0);
    out.cpu_us = cpu_us() - cpu0;
    out
}

/// One untraced round: set up, run the stream, check with `oracle`.
pub fn round(
    inp_of: impl FnOnce() -> SqlInputs,
    oracle: impl FnOnce(&SqlInputs, &mut Db) -> (u64, u64),
) -> RoundOut {
    let t0 = Instant::now();
    let inp = inp_of();
    let mut db = setup(&inp);
    let setup_s = t0.elapsed().as_secs_f64();
    let clock0 = db.view_clock_ns(inp.view).expect("the view exists");
    let s = run_stream(&mut db, &inp.stream);
    let virtual_ns = db.view_clock_ns(inp.view).map(|ns| ns - clock0);
    let peak = peak_rss_mb();
    let (checked, mismatched) = oracle(&inp, &mut db);
    RoundOut {
        setup_s,
        wall_ns: s.wall_ns,
        cpu_us: s.cpu_us,
        ops: inp.stream.len() as u64,
        reads: s.reads,
        writes: s.writes,
        attempted: inp.stream.len() as u64 + checked,
        failed: s.failed + mismatched,
        virtual_ns,
        peak_rss_mb: peak,
    }
}

/// `SHOW METRICS` as a name → value map.
pub fn show_metrics(db: &mut Db) -> HashMap<String, f64> {
    match db.execute("SHOW METRICS") {
        Ok(QueryResult::Metrics(rows)) => rows.into_iter().collect(),
        other => panic!("SHOW METRICS failed: {other:?}"),
    }
}

/// The traced run of a SQL workload: an untraced pass that reads the
/// public counters, then a fresh pass where every statement is followed by
/// its replay through the layers, each call inside a span.
pub fn traced(inp: &SqlInputs) -> (LayerReport, u64, u64) {
    let mut rep = LayerReport::default();
    let writes = inp.writes() as f64;
    let ops = inp.stream.len() as f64;

    // --- pass 1, untraced: counters from the public readers
    let mut db = setup(inp);
    let m0 = show_metrics(&mut db);
    let st0 = db.view_stats(inp.view).expect("view exists");
    let clock0 = db.view_clock_ns(inp.view).expect("view exists");
    let plain = run_stream(&mut db, &inp.stream);
    let m1 = show_metrics(&mut db);
    let st1 = db.view_stats(inp.view).expect("view exists");
    let clock1 = db.view_clock_ns(inp.view).expect("view exists");
    let d = |k: &str| m1.get(k).copied().unwrap_or(0.0) - m0.get(k).copied().unwrap_or(0.0);
    let n_entities = match db.execute(&format!("SELECT COUNT(*) FROM {}", inp.view)) {
        Ok(QueryResult::Count(n)) => n.max(1) as f64,
        other => panic!("COUNT(*) failed: {other:?}"),
    };
    let mem = db.view_memory(inp.view).expect("view exists");
    rep.set(
        "flow.deltas_per_write",
        d("flow_deltas_processed_total") / writes,
    );
    rep.set(
        "core.tuples_reclassified_per_write",
        (st1.tuples_reclassified - st0.tuples_reclassified) as f64 / writes,
    );
    rep.set("core.reorgs", (st1.reorgs - st0.reorgs) as f64);
    rep.set("core.epoch_rebases", d("core_epoch_rebases_total"));
    rep.set(
        "core.view_bytes_per_entity",
        mem.total() as f64 / n_entities,
    );
    rep.set("core.virtual_ns_per_op", (clock1 - clock0) as f64 / ops);
    rep.set(
        "storage.wal_syncs_per_write",
        d("storage_wal_fsync_total") / writes,
    );
    rep.set(
        "storage.wal_bytes_per_write",
        d("storage_wal_fsync_bytes_total") / writes,
    );
    rep.set(
        "storage.checkpoint_bytes_per_write",
        d("storage_checkpoint_bytes_total") / writes,
    );
    let hits = d("storage_pool_hits_total");
    let accesses = hits + d("storage_pool_misses_total");
    rep.set("storage.pool_accesses_per_write", accesses / writes);
    rep.set(
        "storage.pool_hit_ratio",
        if accesses > 0.0 { hits / accesses } else { 0.0 },
    );
    drop(db);

    // --- pass 2, traced: client path, then the layer replay
    let mut db = setup(inp);
    let mut mirror = Mirror::new(inp);
    let mut tr = Tracer::default();
    let mut failed = plain.failed;
    for s in &inp.stream {
        tr.next_op();
        let (r, root) = tr.span("op", None, || db.execute(&s.sql));
        if !matches!(&r, Ok(q) if s.expect.accepts(q)) {
            failed += 1;
        }
        let (parsed, _) = tr.span("rdbms.parse", Some(root), || parse_statement(&s.sql));
        assert!(
            parsed.is_ok(),
            "the client path accepted what the parser rejects"
        );
        mirror.replay(&s.op, &mut tr, root);
    }
    eprintln!("{}", tr.summary());
    let selfs = tr.self_times();
    let us = |name: &str| p50(selfs.get(name).map_or(&[][..], |v| v)) / 1e3;
    rep.set("rdbms.parse_us", us("rdbms.parse"));
    rep.set("rdbms.featurize_us", us("rdbms.featurize"));
    rep.set("flow.propagate_us", us("flow.propagate"));
    rep.set("core.engine_write_us", us("core.engine_write"));
    rep.set("core.epoch_rebuild_us", us("core.epoch_rebuild"));
    rep.set("core.epoch_pin_read_ns", us("core.epoch_pin_read") * 1e3);
    rep.set("learn.sgd_step_us", us("learn.sgd_step"));
    rep.set("linalg.margin_ns", us("linalg.margin") * 1e3);
    rep.set("storage.checkpoint_ms", us("storage.checkpoint") / 1e3);
    rep.set("trace.unattributed_us", us("op"));
    let traced_p50 = p50(&tr.durations("op"));
    let plain_p50 = plain.all.quantile(0.5);
    rep.set("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
    let attempted = 2 * inp.stream.len() as u64;
    (rep, attempted, failed)
}

/// The layers of one SQL view, driven directly through their public entry
/// points with the same inputs the database gives them.
struct Mirror {
    ff: Box<dyn FeatureFunction>,
    schema: Schema,
    rows: HashMap<i64, Row>,
    feats: HashMap<i64, FeatureVec>,
    graph: Dataflow<Row>,
    src_entities: NodeId,
    src_examples: NodeId,
    sink: NodeId,
    engine: MirrorEngine,
    trainer: SgdTrainer,
    pair: NormPair,
    epoch: Option<Arc<EpochCell>>,
    lsn: u64,
}

enum MirrorEngine {
    Plain(Box<dyn DurableClassifierView + Send>),
    Durable(DurableView),
}

impl MirrorEngine {
    fn view(&mut self) -> &mut (dyn DurableClassifierView + Send) {
        match self {
            MirrorEngine::Plain(b) => b.as_mut(),
            MirrorEngine::Durable(d) => d,
        }
    }
}

impl Mirror {
    fn new(inp: &SqlInputs) -> Mirror {
        let mut ff = by_name(inp.feature_fn, DICT_CAPACITY).expect("registered feature function");
        let corpus: Vec<&Row> = inp.entities.iter().map(|(_, r)| r).collect();
        ff.compute_stats(&corpus, &inp.schema);
        let rows: HashMap<i64, Row> = inp.entities.iter().cloned().collect();
        let feats: HashMap<i64, FeatureVec> = inp
            .entities
            .iter()
            .map(|(id, r)| (*id, ff.compute_feature(r, &inp.schema)))
            .collect();
        let ents: Vec<Entity> = inp
            .entities
            .iter()
            .map(|(id, _)| Entity::new(*id as u64, feats[id].clone()))
            .collect();
        let warm: Vec<TrainingExample> = inp
            .warm
            .iter()
            .map(|&(id, y)| TrainingExample::new(id as u64, feats[&id].clone(), y))
            .collect();
        let dense = inp.feature_fn == "numeric_columns";
        let pair = if dense {
            NormPair::EUCLIDEAN
        } else {
            NormPair::TEXT
        };
        let builder = ViewBuilder::new(inp.arch, Mode::Eager)
            .sgd(SgdConfig::svm())
            .norm_pair(pair)
            .dim(ff.dim());
        let mut trainer = SgdTrainer::new(SgdConfig::svm(), ff.dim());
        for ex in &warm {
            trainer.step(&ex.f, ex.y);
        }
        let inner = builder.build(ents, &warm);
        let engine = if inp.durable {
            let fs = SimFs::new();
            let store = fs.open("classification_view/mirror", inner.clock().clone());
            // checkpoints are taken by the replay, inside their own span
            MirrorEngine::Durable(DurableView::create(inner, store, u64::MAX))
        } else {
            MirrorEngine::Plain(inner)
        };
        let mut graph = Dataflow::new();
        let src_entities = graph.source();
        let src_examples = graph.source();
        let sink = graph.sink(&[src_entities, src_examples]);
        Mirror {
            ff,
            schema: inp.schema.clone(),
            rows,
            feats,
            graph,
            src_entities,
            src_examples,
            sink,
            engine,
            trainer,
            pair,
            epoch: None,
            lsn: 0,
        }
    }

    fn propagate(&mut self, tr: &mut Tracer, root: usize, src: NodeId, deltas: Vec<Delta<Row>>) {
        let (graph, sink) = (&mut self.graph, self.sink);
        tr.span("flow.propagate", Some(root), || {
            graph.ingest(src, deltas);
            graph.drain(sink)
        });
    }

    fn featurize(&mut self, tr: &mut Tracer, root: usize, id: i64, row: &Row) -> FeatureVec {
        let (ff, schema) = (&mut self.ff, &self.schema);
        let (f, _) = tr.span("rdbms.featurize", Some(root), || {
            ff.compute_stats_inc(row, schema);
            ff.compute_feature(row, schema)
        });
        self.feats.insert(id, f.clone());
        f
    }

    fn margin(&mut self, tr: &mut Tracer, id: i64) {
        if let Some(f) = self.feats.get(&id) {
            let model = self.engine.view().model();
            tr.span("linalg.margin", None, || {
                std::hint::black_box(model.margin(f))
            });
        }
    }

    fn checkpoint_if_due(&mut self, tr: &mut Tracer, root: usize) {
        if let MirrorEngine::Durable(dv) = &mut self.engine {
            if dv.ops_since_checkpoint() >= CHECKPOINT_EVERY {
                tr.span("storage.checkpoint", Some(root), || dv.checkpoint());
            }
        }
    }

    fn replay(&mut self, op: &SqlOp, tr: &mut Tracer, root: usize) {
        match op {
            SqlOp::Feedback { id, label } => {
                let key = Value::Int(*id);
                let row: Row = vec![key, Value::Int(i64::from(*label))];
                self.propagate(tr, root, self.src_examples, vec![Delta::insert(row)]);
                let entity_row = self.rows[id].clone();
                let (ff, schema) = (&self.ff, &self.schema);
                let (f, _) = tr.span("rdbms.featurize", Some(root), || {
                    ff.compute_feature(&entity_row, schema)
                });
                let ex = TrainingExample::new(*id as u64, f, *label);
                let engine = &mut self.engine;
                let ((), w) = tr.span("core.engine_write", Some(root), || {
                    engine.view().update(&ex)
                });
                let trainer = &mut self.trainer;
                tr.span("learn.sgd_step", Some(w), || trainer.step(&ex.f, ex.y));
                self.margin(tr, *id);
                self.epoch = None;
            }
            SqlOp::InsertEntity { id, row } => {
                self.propagate(
                    tr,
                    root,
                    self.src_entities,
                    vec![Delta::insert(row.clone())],
                );
                let f = self.featurize(tr, root, *id, row);
                self.rows.insert(*id, row.clone());
                let engine = &mut self.engine;
                tr.span("core.engine_write", Some(root), || {
                    engine.view().insert_entity(Entity::new(*id as u64, f))
                });
                self.margin(tr, *id);
                self.epoch = None;
            }
            SqlOp::UpdateEntity { id, sets } => {
                let old = self.rows[id].clone();
                let mut new = old.clone();
                for (c, v) in sets {
                    new[*c] = v.clone();
                }
                self.propagate(
                    tr,
                    root,
                    self.src_entities,
                    vec![Delta::retract(old), Delta::insert(new.clone())],
                );
                let f = self.featurize(tr, root, *id, &new);
                self.rows.insert(*id, new);
                let engine = &mut self.engine;
                tr.span("core.engine_write", Some(root), || {
                    engine.view().remove_entity(*id as u64);
                    engine.view().insert_entity(Entity::new(*id as u64, f))
                });
                self.margin(tr, *id);
                self.epoch = None;
            }
            SqlOp::DeleteEntity { id } => {
                let old = self.rows.remove(id).expect("generator deletes live rows");
                self.feats.remove(id);
                self.propagate(tr, root, self.src_entities, vec![Delta::retract(old)]);
                let engine = &mut self.engine;
                tr.span("core.engine_write", Some(root), || {
                    engine.view().remove_entity(*id as u64)
                });
                self.epoch = None;
            }
            SqlOp::SelectLabel { id } => {
                let cell = self.current_epoch(tr, root);
                tr.span("core.epoch_pin_read", Some(root), || {
                    std::hint::black_box(cell.pin().classify(*id as u64))
                });
                self.margin(tr, *id);
            }
            SqlOp::SelectCount => {
                let cell = self.current_epoch(tr, root);
                tr.span("core.epoch_pin_read", Some(root), || {
                    std::hint::black_box(cell.pin().entity_count())
                });
            }
        }
        self.checkpoint_if_due(tr, root);
    }

    /// The epoch a SELECT pins: republished from the engine's answer state
    /// after any write, as the database's read path does.
    fn current_epoch(&mut self, tr: &mut Tracer, root: usize) -> Arc<EpochCell> {
        if let Some(cell) = &self.epoch {
            return Arc::clone(cell);
        }
        self.lsn += 1;
        let (engine, pair, lsn) = (&mut self.engine, self.pair, self.lsn);
        let (cell, _) = tr.span("core.epoch_rebuild", Some(root), || {
            let (entities, model) = engine
                .view()
                .snapshot_state()
                .expect("in-memory answer state");
            EpochPublisher::new(entities, model, pair, lsn).handle()
        });
        self.epoch = Some(Arc::clone(&cell));
        cell
    }
}

/// Every live entity's feature vector after the whole stream, from the
/// registered feature function fed the rows in the order the table
/// received them.
pub fn final_features(inp: &SqlInputs) -> BTreeMap<i64, FeatureVec> {
    let mut ff = by_name(inp.feature_fn, DICT_CAPACITY).expect("registered feature function");
    let mut rows: BTreeMap<i64, Row> = inp.entities.iter().cloned().collect();
    let corpus: Vec<&Row> = rows.values().collect();
    ff.compute_stats(&corpus, &inp.schema);
    for s in &inp.stream {
        match &s.op {
            SqlOp::InsertEntity { id, row } => {
                ff.compute_stats_inc(row, &inp.schema);
                rows.insert(*id, row.clone());
            }
            SqlOp::UpdateEntity { id, sets } => {
                let row = rows.get_mut(id).expect("generator updates live rows");
                for (c, v) in sets {
                    row[*c] = v.clone();
                }
                ff.compute_stats_inc(row, &inp.schema);
            }
            SqlOp::DeleteEntity { id } => {
                rows.remove(id);
            }
            _ => {}
        }
    }
    rows.iter()
        .map(|(id, r)| (*id, ff.compute_feature(r, &inp.schema)))
        .collect()
}

/// Final-state labels of `ids` as the database answers them.
pub fn labels_of(db: &mut Db, view: &str, ids: &[i64]) -> BTreeMap<i64, Option<i8>> {
    ids.iter()
        .map(|&id| {
            let l = match db.execute(&format!("SELECT class FROM {view} WHERE id = {id}")) {
                Ok(QueryResult::Label(l)) => l,
                _ => Some(0), // an error is an answer no oracle accepts
            };
            (id, l)
        })
        .collect()
}
