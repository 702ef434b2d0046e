//! `tcp_serve`: the serving plane through `TcpClient` → `TcpFront`.
//!
//! A 2-shard `ShardedView` (Hazy-MM eager, dense Forest-shaped entities)
//! behind `Front::serve_handles` and `TcpFront`. The request stream is
//! mostly `Classify` on Zipf-chosen ids, with `Train` batches,
//! `Insert`/`Remove` of entities and `CountPositive`/`TopK` at fixed
//! positions. One load-generator thread drives it in two phases (the
//! process runs on one CPU). The load phase keeps one wave of `DEPTH`
//! pipelined requests in flight on each of `CONNS` connections and sends a
//! connection's next wave as soon as its answers are in; it sets the
//! throughput and CPU figures. The latency phase sends the last `ALONE`
//! requests one at a time and sets the latency figures.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hazy_core::{
    Architecture, ClassifierView, DurableClassifierView, Entity, EpochCell, EpochPublisher, Mode,
    ViewBuilder,
};
use hazy_datagen::{DatasetSpec, ExampleStream, Zipf};
use hazy_front::{Front, FrontConfig, FrontHandle, Request, Response, TcpClient, TcpFront};
use hazy_learn::{LinearModel, SgdConfig, SgdTrainer, TrainingExample};
use hazy_linalg::{FeatureVec, NormPair};
use hazy_serve::{shard_of, ReadHandle, ShardedView};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{cpu_us, ns_since, peak_rss_mb, StreamOut};
use crate::oracle::{margin, sign_matches, tolerance};
use crate::report::{LayerReport, RoundOut};
use crate::trace::{p50, SpanId, Tracer};

const SHARDS: usize = 2;
/// Entities in the view when serving starts.
const ENTITIES: usize = 4_000;
/// Fresh entities available to the stream's `Insert`s.
const FRESH: usize = 100;
const WARM: usize = 500;
/// Requests in the stream.
const REQUESTS: usize = 6_000;
/// Training examples per `Train` request.
const TRAIN_BATCH: usize = 8;
/// Connections of the load phase.
const CONNS: usize = 2;
/// Requests in flight on each connection in the load phase.
const DEPTH: usize = 512;
/// Requests at the end of the stream sent one at a time.
const ALONE: usize = 400;
/// `TopK` result size.
const TOP_K: u32 = 10;
/// The dataset is fixed; `--seed` draws the request stream over it.
const DATA_SEED: u64 = 0xF04E57;

pub struct ServeInputs {
    entities: Vec<Entity>,
    warm: Vec<TrainingExample>,
    requests: Vec<Request>,
}

fn builder() -> ViewBuilder {
    ViewBuilder::new(Architecture::HazyMem, Mode::Eager)
        .sgd(SgdConfig::svm())
        .norm_pair(NormPair::EUCLIDEAN)
        .dim(54)
}

pub fn inputs(seed: u64) -> ServeInputs {
    let ds = DatasetSpec {
        n_entities: ENTITIES + FRESH,
        seed: DATA_SEED,
        ..DatasetSpec::forest()
    }
    .generate();
    let mut all: Vec<Entity> = ds
        .entities
        .iter()
        .map(|e| Entity::new(e.id, e.f.clone()))
        .collect();
    let fresh = all.split_off(ENTITIES);
    let mut examples = ExampleStream::for_dataset(&ds, seed);
    let warm = examples.take_vec(WARM);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E4E);
    let zipf = Zipf::new(ENTITIES, 1.0);
    let mut fresh = fresh.into_iter();
    // (stream position, id) of every insert not yet removed
    let mut inserted: VecDeque<(usize, u64)> = VecDeque::new();
    let mut removed: BTreeSet<u64> = BTreeSet::new();
    let mut requests = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        // hot entities sit at scattered ids: rank r maps to (r * 7919) mod n
        let hot = |rng: &mut StdRng| ((zipf.sample(rng) * 7919) % ENTITIES) as u64;
        let req = if i % 25 == 24 {
            Request::Train {
                batch: examples.take_vec(TRAIN_BATCH),
            }
        } else if i % 200 == 17 {
            let e = fresh.next().expect("FRESH covers every insert");
            inserted.push_back((i, e.id));
            Request::Insert { id: e.id, f: e.f }
        } else if i % 200 == 117 {
            // alternately retract an inserted entity and a served one, each
            // removed only once; an inserted one only once no wave in
            // flight with its remove can hold its insert, since waves on
            // different connections may be applied in either order
            let settled = inserted
                .front()
                .is_some_and(|(at, _)| at + CONNS * DEPTH <= i);
            let id = if i % 400 == 117 && settled {
                inserted.pop_front().expect("a settled insert").1
            } else {
                std::iter::repeat_with(|| hot(&mut rng))
                    .find(|id| !removed.contains(id))
                    .expect("an unremoved entity")
            };
            removed.insert(id);
            Request::Remove { id }
        } else if i % 200 == 33 {
            Request::CountPositive
        } else if i % 200 == 133 {
            Request::TopK { k: TOP_K }
        } else {
            Request::Classify { id: hot(&mut rng) }
        };
        requests.push(req);
    }
    ServeInputs {
        entities: all,
        warm,
        requests,
    }
}

/// The answer a write must get: `Done` with the count it carried.
fn expected_write(req: &Request) -> Option<Response> {
    match req {
        Request::Train { batch } => Some(Response::Done {
            applied: batch.len() as u64,
        }),
        Request::Insert { .. } | Request::Remove { .. } => Some(Response::Done { applied: 1 }),
        _ => None,
    }
}

fn answer_ok(req: &Request, resp: &Response) -> bool {
    match expected_write(req) {
        Some(want) => *resp == want,
        None => matches!(
            (req, resp),
            (Request::Classify { .. }, Response::Label(_))
                | (Request::CountPositive, Response::Count(_))
                | (Request::TopK { .. }, Response::Ranked(_))
        ),
    }
}

/// The serving stack under test, ready for its first request.
struct Stack {
    probe: ReadHandle,
    front: Front,
    tcp: TcpFront,
    /// `CONNS` connections; the first also carries the latency phase and
    /// the oracle's reads.
    clients: Vec<TcpClient>,
}

impl Stack {
    fn new(inp: &ServeInputs) -> Stack {
        let view = ShardedView::build(&builder(), SHARDS, inp.entities.clone(), &inp.warm);
        let (rh, wh) = view.into_handles();
        let probe = rh.clone();
        let cfg = FrontConfig::default();
        // every request in flight fits its lane's queue, so none is shed
        assert!(CONNS * DEPTH <= cfg.read_queue.min(cfg.write_queue));
        let front = Front::serve_handles(rh, wh, cfg);
        let tcp = TcpFront::bind("127.0.0.1:0", front.handle()).expect("bind a loopback port");
        let clients = (0..CONNS)
            .map(|_| TcpClient::connect(tcp.local_addr()).expect("connect over loopback"))
            .collect();
        Stack {
            probe,
            front,
            tcp,
            clients,
        }
    }

    fn shutdown(self) {
        drop(self.clients);
        self.tcp.shutdown();
        self.front.shutdown();
    }
}

/// Sends every request of a wave without waiting; `false` where a send
/// failed.
fn send_all(client: &mut TcpClient, reqs: &[Request]) -> Vec<bool> {
    reqs.iter().map(|r| client.send(r).is_ok()).collect()
}

/// The answer to each sent request, in order (an I/O failure as `Error`),
/// with its arrival.
fn recv_all(client: &mut TcpClient, sent: Vec<bool>) -> Vec<(Response, Instant)> {
    sent.into_iter()
        .map(|ok| {
            let r = if ok {
                client.recv()
            } else {
                Err(std::io::Error::other("send failed"))
            };
            (r.unwrap_or_else(|e| Response::Error(e.to_string())), Instant::now())
        })
        .collect()
}

/// The load phase: the requests in waves of `DEPTH`, one wave in flight on
/// each connection. Whenever a wave's answers are all in, the next wave
/// goes out on that connection, so the server has the other connection's
/// wave to serve while the generator reads and sends. Returns the answers
/// in stream order.
fn pipeline(clients: &mut [TcpClient], reqs: &[Request]) -> Vec<Response> {
    let waves: Vec<&[Request]> = reqs.chunks(DEPTH).collect();
    let n = clients.len();
    let mut in_flight: VecDeque<Vec<bool>> = waves
        .iter()
        .zip(clients.iter_mut())
        .map(|(w, c)| send_all(c, w))
        .collect();
    let mut answers = Vec::with_capacity(reqs.len());
    for k in 0..waves.len() {
        let client = &mut clients[k % n];
        let sent = in_flight.pop_front().expect("one wave in flight per wave left");
        answers.extend(recv_all(client, sent).into_iter().map(|(r, _)| r));
        if let Some(w) = waves.get(k + n) {
            in_flight.push_back(send_all(client, w));
        }
    }
    answers
}

/// Pause before the `k`-th request of the latency phase: 500–1,000 µs,
/// spread evenly over that range by the golden ratio. The server's TCP
/// poll loop sleeps 200 µs whenever a sweep finds nothing to do, so a
/// request's latency depends on where in that sleep it lands. Sent right
/// after the previous answer, or after a fixed pause, a request lands at
/// the same point of the sleep every time, and which point that is
/// changed from run to run (the median read moved between about 50 and
/// 550 µs). Pauses spread over more than a sleep land requests at points
/// spread over the whole sleep.
fn pause(k: usize) -> Duration {
    let frac = (k as f64 * 0.618_033_988_749_895).fract();
    Duration::from_micros(500 + (frac * 500.0) as u64)
}

/// One request alone on the connection, sent `gap` after the previous
/// answer: its answer, its send and its answer's arrival.
fn alone(client: &mut TcpClient, req: &Request, gap: Duration) -> (Response, Instant, Instant) {
    std::thread::sleep(gap);
    let start = Instant::now();
    let sent = send_all(client, std::slice::from_ref(req));
    let (resp, end) = recv_all(client, sent).pop().expect("one answer");
    (resp, start, end)
}

/// The stream in two phases. The load phase pipelines all but the last
/// `ALONE` requests and sets the throughput and CPU figures; the latency
/// phase then sends the last `ALONE` one at a time, each answered before
/// the next goes out, and sets the latency samples.
fn run_stream(stack: &mut Stack, requests: &[Request]) -> StreamOut {
    let (load, tail) = requests.split_at(requests.len() - ALONE);
    let mut out = StreamOut::default();
    let cpu0 = cpu_us();
    let t0 = Instant::now();
    let answers = pipeline(&mut stack.clients, load);
    out.wall_ns = ns_since(t0);
    out.cpu_us = cpu_us() - cpu0;
    for (req, resp) in load.iter().zip(&answers) {
        out.failed += u64::from(!answer_ok(req, resp));
    }
    for (k, req) in tail.iter().enumerate() {
        let (resp, start, end) = alone(&mut stack.clients[0], req, pause(k));
        let ns = end.duration_since(start).as_nanos() as u64;
        out.record(req.is_read(), ns, answer_ok(req, &resp));
    }
    out
}

/// The entities alive after the whole stream, and those it removed.
fn final_population(inp: &ServeInputs) -> (BTreeMap<u64, FeatureVec>, BTreeSet<u64>) {
    let mut live: BTreeMap<u64, FeatureVec> =
        inp.entities.iter().map(|e| (e.id, e.f.clone())).collect();
    let mut removed = BTreeSet::new();
    for r in &inp.requests {
        match r {
            Request::Insert { id, f } => {
                live.insert(*id, f.clone());
                removed.remove(id);
            }
            Request::Remove { id } => {
                live.remove(id);
                removed.insert(*id);
            }
            _ => {}
        }
    }
    (live, removed)
}

/// The final-state oracle, once every request has completed: every live
/// entity's label, `CountPositive` and `TopK` agree with margins computed
/// here under the probe's model snapshot (ties broken by id), and removed
/// entities have no label. Returns `(checks, failed checks)`.
fn oracle(inp: &ServeInputs, stack: &mut Stack) -> (u64, u64) {
    let model = stack.probe.model_snapshot();
    let (live, removed) = final_population(inp);
    let ids: Vec<u64> = live.keys().chain(removed.iter()).copied().collect();
    let client = &mut stack.clients[0];
    let mut labels = BTreeMap::new();
    for chunk in ids.chunks(64) {
        for &id in chunk {
            client
                .send(&Request::Classify { id })
                .expect("send a check read");
        }
        for &id in chunk {
            let l = match client.recv() {
                Ok(Response::Label(l)) => l,
                _ => Some(0), // an answer no check accepts
            };
            labels.insert(id, l);
        }
    }
    let count = match client.call(&Request::CountPositive) {
        Ok(Response::Count(n)) => n,
        _ => u64::MAX,
    };
    let top = match client.call(&Request::TopK { k: TOP_K }) {
        Ok(Response::Ranked(t)) => t,
        _ => Vec::new(),
    };
    check(&model, &live, &removed, &labels, count, &top)
}

/// The comparisons behind [`oracle`], apart from the serving stack.
fn check(
    model: &LinearModel,
    live: &BTreeMap<u64, FeatureVec>,
    removed: &BTreeSet<u64>,
    labels: &BTreeMap<u64, Option<i8>>,
    count: u64,
    top: &[(u64, f64)],
) -> (u64, u64) {
    let tol = tolerance(model, 1e-6);
    let margins: BTreeMap<u64, f64> = live.iter().map(|(id, f)| (*id, margin(model, f))).collect();
    let mut failed = 0u64;
    for (id, m) in &margins {
        let ok = matches!(labels.get(id), Some(Some(l)) if sign_matches(*l, *m, tol));
        failed += u64::from(!ok);
    }
    failed += removed
        .iter()
        .filter(|id| labels.get(id) != Some(&None))
        .count() as u64;
    let strict = margins.values().filter(|m| **m > tol).count() as u64;
    let loose = margins.values().filter(|m| **m > -tol).count() as u64;
    failed += u64::from(!(strict..=loose).contains(&count));
    let mut ranked: Vec<(u64, f64)> = margins.iter().map(|(id, m)| (*id, *m)).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(TOP_K as usize);
    let top_ok = top.len() == ranked.len()
        && top.iter().zip(&ranked).all(|((id, _), (want_id, want_m))| {
            id == want_id || margins.get(id).is_some_and(|m| (m - want_m).abs() <= tol)
        });
    failed += u64::from(!top_ok);
    (margins.len() as u64 + removed.len() as u64 + 2, failed)
}

pub fn round(seed: u64) -> RoundOut {
    let t0 = Instant::now();
    let inp = inputs(seed);
    let mut stack = Stack::new(&inp);
    let setup_s = t0.elapsed().as_secs_f64();
    let s = run_stream(&mut stack, &inp.requests);
    let peak = peak_rss_mb();
    let (checked, mismatched) = oracle(&inp, &mut stack);
    stack.shutdown();
    RoundOut {
        setup_s,
        wall_ns: s.wall_ns,
        cpu_us: s.cpu_us,
        ops: (inp.requests.len() - ALONE) as u64,
        reads: s.reads,
        writes: s.writes,
        attempted: inp.requests.len() as u64 + checked,
        failed: s.failed + mismatched,
        // the serving tier's cost clock stays inside its shards
        virtual_ns: None,
        peak_rss_mb: peak,
    }
}

fn metric(name: &str) -> f64 {
    hazy_obs::registry()
        .flat_snapshot(None)
        .into_iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| v)
}

/// The layers of the serving plane, driven directly: an in-process front
/// end (no socket), a bare sharded view, and per shard one core engine
/// with its epoch publisher and trainer, partitioned as the sharded view
/// partitions its entities.
struct Mirror {
    front: Front,
    call: FrontHandle,
    sharded: ShardedView,
    shards: Vec<CoreShard>,
    /// Live entities' features, for the scoring-kernel probe.
    feats: BTreeMap<u64, FeatureVec>,
}

struct CoreShard {
    engine: Box<dyn DurableClassifierView + Send>,
    publisher: EpochPublisher,
    epochs: Arc<EpochCell>,
    trainer: SgdTrainer,
}

impl Mirror {
    fn new(inp: &ServeInputs) -> Mirror {
        let b = builder();
        let front = Front::serve_sharded(
            ShardedView::build(&b, SHARDS, inp.entities.clone(), &inp.warm),
            FrontConfig::default(),
        );
        let call = front.handle();
        let sharded = ShardedView::build(&b, SHARDS, inp.entities.clone(), &inp.warm);
        let shards = (0..SHARDS)
            .map(|s| {
                let part: Vec<Entity> = inp
                    .entities
                    .iter()
                    .filter(|e| shard_of(e.id, SHARDS) == s)
                    .cloned()
                    .collect();
                let mut engine = b.build(part, &inp.warm);
                let publisher = EpochPublisher::from_view(engine.as_mut(), NormPair::EUCLIDEAN, 0)
                    .expect("an in-memory engine has an answer state");
                let epochs = publisher.handle();
                let mut trainer = SgdTrainer::new(SgdConfig::svm(), 54);
                for ex in &inp.warm {
                    trainer.step(&ex.f, ex.y);
                }
                CoreShard {
                    engine,
                    publisher,
                    epochs,
                    trainer,
                }
            })
            .collect();
        let feats = inp.entities.iter().map(|e| (e.id, e.f.clone())).collect();
        Mirror {
            front,
            call,
            sharded,
            shards,
            feats,
        }
    }

    fn replay(&mut self, req: &Request, tr: &mut Tracer, root: SpanId) {
        let front_name = if req.is_read() {
            "front.call_read"
        } else {
            "front.call_write"
        };
        let call = &self.call;
        let (_, fc) = tr.span(front_name, Some(root), || call.call(req.clone()));
        let (sharded, shards) = (&mut self.sharded, &mut self.shards);
        match req {
            Request::Classify { id } => {
                let (_, sv) = tr.span("serve.classify", Some(fc), || sharded.classify(*id));
                let home = &shards[shard_of(*id, SHARDS)];
                tr.span("core.epoch_pin_read", Some(sv), || {
                    home.epochs.pin().classify(*id)
                });
                if let Some(f) = self.feats.get(id) {
                    let model = home.engine.model();
                    tr.span("linalg.margin", None, || {
                        std::hint::black_box(model.margin(f))
                    });
                }
            }
            Request::CountPositive => {
                let (_, sv) = tr.span("serve.scan", Some(fc), || sharded.count_positive());
                tr.span("core.epoch_scan", Some(sv), || {
                    shards
                        .iter()
                        .map(|c| c.epochs.pin().count_positive())
                        .sum::<u64>()
                });
            }
            Request::TopK { k } => {
                let k = *k as usize;
                let (_, sv) = tr.span("serve.scan", Some(fc), || sharded.top_k(k));
                tr.span("core.epoch_scan", Some(sv), || {
                    shards
                        .iter()
                        .map(|c| c.epochs.pin().top_k(k))
                        .collect::<Vec<_>>()
                });
            }
            Request::Train { batch } => {
                // every shard trains its replica of the model, then
                // republishes its epoch
                let (_, sv) = tr.span("serve.update_batch", Some(fc), || {
                    sharded.update_batch(batch)
                });
                let (_, w) = tr.span("core.engine_write", Some(sv), || {
                    shards.iter_mut().for_each(|c| c.engine.update_batch(batch))
                });
                for c in shards.iter_mut() {
                    for ex in batch {
                        tr.span("learn.sgd_step", Some(w), || c.trainer.step(&ex.f, ex.y));
                    }
                }
                tr.span("core.epoch_publish", Some(sv), || {
                    for c in shards.iter_mut() {
                        c.publisher.apply_update(c.engine.model());
                    }
                });
            }
            Request::Insert { id, f } => {
                let e = Entity::new(*id, f.clone());
                let (_, sv) = tr.span("serve.update_batch", Some(fc), || {
                    sharded.insert_entity(e.clone())
                });
                let home = &mut shards[shard_of(*id, SHARDS)];
                tr.span("core.engine_write", Some(sv), || {
                    home.engine.insert_entity(e.clone())
                });
                tr.span("core.epoch_publish", Some(sv), || {
                    home.publisher.apply_insert(e)
                });
                let model = home.engine.model();
                tr.span("linalg.margin", None, || {
                    std::hint::black_box(model.margin(f))
                });
                self.feats.insert(*id, f.clone());
            }
            Request::Remove { id } => {
                let (_, sv) = tr.span("serve.update_batch", Some(fc), || {
                    sharded.remove_entity(*id)
                });
                let home = &mut shards[shard_of(*id, SHARDS)];
                tr.span("core.engine_write", Some(sv), || {
                    home.engine.remove_entity(*id)
                });
                tr.span("core.epoch_publish", Some(sv), || {
                    home.publisher.apply_remove(*id)
                });
                self.feats.remove(id);
            }
            Request::MetricsDump => {}
        }
    }
}

/// The traced run: an untraced pass that reads the public counters, then a
/// fresh pass where every wave is followed by its replay through the
/// layers, each call inside a span.
pub fn traced(seed: u64) -> (LayerReport, u64, u64) {
    let inp = inputs(seed);
    let mut rep = LayerReport::default();
    let writes = inp.requests.iter().filter(|r| !r.is_read()).count() as f64;

    // --- pass 1, untraced: counters from the public readers
    let mut stack = Stack::new(&inp);
    stack.probe.sync_obs();
    let rebases0 = metric("core_epoch_rebases_total");
    let st0 = stack.probe.stats();
    let plain = run_stream(&mut stack, &inp.requests);
    stack.probe.sync_obs();
    let st1 = stack.probe.stats();
    rep.set(
        "core.epoch_rebases",
        metric("core_epoch_rebases_total") - rebases0,
    );
    rep.set(
        "core.tuples_reclassified_per_write",
        (st1.tuples_reclassified - st0.tuples_reclassified) as f64 / writes,
    );
    rep.set("core.reorgs", (st1.reorgs - st0.reorgs) as f64);
    let fs = stack.front.stats();
    rep.set("front.read_batch_mean", fs.mean_read_batch());
    rep.set(
        "front.write_batch_mean",
        if fs.write_batches == 0 {
            0.0
        } else {
            fs.batched_writes as f64 / fs.write_batches as f64
        },
    );
    let mut failed = plain.failed;
    stack.shutdown();

    // --- pass 2, traced: each load wave over TCP, then its replay; then
    // each latency-phase request alone over TCP, then its replay
    let mut stack = Stack::new(&inp);
    let mut mirror = Mirror::new(&inp);
    let clock0 = mirror.sharded.clock().now_ns();
    let mut tr = Tracer::default();
    let (load, tail) = inp.requests.split_at(inp.requests.len() - ALONE);
    let client = &mut stack.clients[0];
    for reqs in load.chunks(DEPTH) {
        let start = Instant::now();
        let sent = send_all(client, reqs);
        for (req, (resp, end)) in reqs.iter().zip(recv_all(client, sent)) {
            failed += u64::from(!answer_ok(req, &resp));
            tr.next_op();
            let root = tr.record("tcp.load", None, start, end);
            mirror.replay(req, &mut tr, root);
        }
    }
    for (k, req) in tail.iter().enumerate() {
        let (resp, start, end) = alone(client, req, pause(k));
        failed += u64::from(!answer_ok(req, &resp));
        tr.next_op();
        let name = if req.is_read() {
            "tcp.read"
        } else {
            "tcp.write"
        };
        let root = tr.record(name, None, start, end);
        mirror.replay(req, &mut tr, root);
    }
    let ops = inp.requests.len() as f64;
    rep.set(
        "core.virtual_ns_per_op",
        (mirror.sharded.clock().now_ns() - clock0) as f64 / ops,
    );
    let entities = mirror.sharded.entity_count().max(1) as f64;
    rep.set(
        "core.view_bytes_per_entity",
        mirror.sharded.memory().total() as f64 / entities,
    );
    stack.shutdown();
    mirror.front.shutdown();

    eprintln!("{}", tr.summary());
    let selfs = tr.self_times();
    let ns = |name: &str| p50(selfs.get(name).map_or(&[][..], |v| v));
    rep.set("front.call_read_us", ns("front.call_read") / 1e3);
    rep.set("front.call_write_us", ns("front.call_write") / 1e3);
    // the untraced TCP read against the same read through the in-process
    // handle: what the socket and the poll loop add
    rep.set(
        "front.tcp_read_overhead_us",
        (plain.reads.quantile(0.5) - ns("front.call_read")) / 1e3,
    );
    rep.set("serve.update_batch_us", ns("serve.update_batch") / 1e3);
    rep.set("serve.classify_ns", ns("serve.classify"));
    rep.set("core.engine_write_us", ns("core.engine_write") / 1e3);
    rep.set("core.epoch_publish_us", ns("core.epoch_publish") / 1e3);
    rep.set("core.epoch_pin_read_ns", ns("core.epoch_pin_read"));
    rep.set("learn.sgd_step_us", ns("learn.sgd_step") / 1e3);
    rep.set("linalg.margin_ns", ns("linalg.margin"));
    let mut roots: Vec<f64> = selfs.get("tcp.read").cloned().unwrap_or_default();
    roots.extend(selfs.get("tcp.write").cloned().unwrap_or_default());
    rep.set("trace.unattributed_us", p50(&roots) / 1e3);
    let mut traced_all = tr.durations("tcp.read");
    traced_all.extend(tr.durations("tcp.write"));
    rep.set(
        "trace.overhead_pct",
        (p50(&traced_all) / plain.all.quantile(0.5) - 1.0) * 100.0,
    );
    (rep, 2 * inp.requests.len() as u64, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fixture = (
        LinearModel,
        BTreeMap<u64, FeatureVec>,
        BTreeSet<u64>,
        BTreeMap<u64, Option<i8>>,
    );

    fn fixture() -> Fixture {
        let model = LinearModel::from_parts(vec![1.0, -1.0], 0.0);
        let live: BTreeMap<u64, FeatureVec> = (0..12u64)
            .map(|i| (i, FeatureVec::dense(vec![i as f32 / 10.0, 0.55])))
            .collect();
        let removed: BTreeSet<u64> = [40].into_iter().collect();
        let mut labels: BTreeMap<u64, Option<i8>> = live
            .iter()
            .map(|(id, f)| (*id, Some(if margin(&model, f) > 0.0 { 1 } else { -1 })))
            .collect();
        labels.insert(40, None);
        (model, live, removed, labels)
    }

    fn top(model: &LinearModel, live: &BTreeMap<u64, FeatureVec>) -> Vec<(u64, f64)> {
        let mut r: Vec<(u64, f64)> = live.iter().map(|(id, f)| (*id, margin(model, f))).collect();
        r.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        r.truncate(TOP_K as usize);
        r
    }

    #[test]
    fn accepts_answers_that_match_the_margins() {
        let (model, live, removed, labels) = fixture();
        let t = top(&model, &live);
        assert_eq!(check(&model, &live, &removed, &labels, 6, &t), (15, 0));
    }

    #[test]
    fn rejects_a_flipped_label() {
        let (model, live, removed, mut labels) = fixture();
        labels.insert(0, Some(1));
        let t = top(&model, &live);
        assert_eq!(check(&model, &live, &removed, &labels, 6, &t).1, 1);
    }

    #[test]
    fn rejects_a_count_off_by_one() {
        let (model, live, removed, labels) = fixture();
        let t = top(&model, &live);
        assert_eq!(check(&model, &live, &removed, &labels, 7, &t).1, 1);
    }

    #[test]
    fn rejects_a_misordered_top_k() {
        let (model, live, removed, labels) = fixture();
        let mut t = top(&model, &live);
        t.swap(0, 1);
        assert_eq!(check(&model, &live, &removed, &labels, 6, &t).1, 1);
    }

    #[test]
    fn rejects_a_wrong_write_acknowledgement() {
        let req = Request::Train { batch: Vec::new() };
        assert!(answer_ok(&req, &Response::Done { applied: 0 }));
        assert!(!answer_ok(&req, &Response::Done { applied: 1 }));
        assert!(!answer_ok(
            &Request::Remove { id: 3 },
            &Response::Rejected { retry_after_ms: 1 }
        ));
    }
}
