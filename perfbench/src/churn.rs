//! `sql_durable_churn`: write-heavy churn on a durable view.
//!
//! A dense 54-column table shaped like the Forest dataset and a
//! `numeric_columns` view declared `ARCHITECTURE HYBRID MODE EAGER
//! DURABLE`. The stream is entity `INSERT`/`UPDATE`/`DELETE` and feedback
//! `INSERT`s, with a `SELECT` only every few dozen writes, so most of the
//! work falls on WAL appends, checkpoints and the buffer pool.

use std::collections::{BTreeMap, BTreeSet};

use hazy_core::Architecture;
use hazy_datagen::DatasetSpec;
use hazy_learn::LinearModel;
use hazy_rdbms::{ColumnType, Db, QueryResult, Row, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{sign_matches, tolerance};
use crate::report::RoundOut;
use crate::sqlpath::{self, labels_of, Expect, SqlInputs, SqlOp, Stmt};

pub const VIEW: &str = "Cover";
const DIM: usize = 54;
/// Entities loaded before the view is declared.
const ENTITIES: usize = 4_000;
/// Fresh entities available to the stream's `INSERT`s.
const FRESH: usize = 600;
const WARM: usize = 200;
/// Writes in the stream.
const WRITES: usize = 1_500;
/// Writes between two reads.
const READ_EVERY: usize = 30;
/// The dataset is fixed; `--seed` draws the statement stream over it.
const DATA_SEED: u64 = 0xF04E57;

/// A feature value as the statement spells it; the oracle parses the same
/// text, so both sides see the same `f64`.
fn lit(x: f64) -> String {
    format!("{x:.4}")
}

fn parsed(x: f64) -> f64 {
    lit(x).parse().expect("a formatted float parses")
}

fn label_text(y: i8) -> &'static str {
    if y > 0 {
        "Pos"
    } else {
        "Neg"
    }
}

pub fn inputs(seed: u64) -> SqlInputs {
    let ds = DatasetSpec {
        n_entities: ENTITIES + FRESH,
        seed: DATA_SEED,
        ..DatasetSpec::forest()
    }
    .generate();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0257);
    let mut cols = vec![("id".to_string(), ColumnType::Int)];
    cols.extend((0..DIM).map(|c| (format!("c{c}"), ColumnType::Float)));
    let schema = Schema::new(cols);
    let row_of = |i: usize| -> Row {
        let mut r = vec![Value::Int(i as i64)];
        r.extend(
            ds.entities[i]
                .f
                .to_dense()
                .iter()
                .map(|&x| Value::Float(parsed(f64::from(x)))),
        );
        r
    };
    let insert_sql = |r: &Row| {
        let vals: Vec<String> = r
            .iter()
            .map(|v| match v {
                Value::Int(i) => i.to_string(),
                Value::Float(x) => lit(*x),
                other => panic!("numeric rows only, not {other:?}"),
            })
            .collect();
        format!("INSERT INTO Forest VALUES ({})", vals.join(", "))
    };
    let truth = |id: i64| ds.entities[id as usize].label;

    let col_defs: Vec<String> = (0..DIM).map(|c| format!("c{c} FLOAT")).collect();
    let mut load = vec![
        format!(
            "CREATE TABLE Forest (id INT PRIMARY KEY, {})",
            col_defs.join(", ")
        ),
        "CREATE TABLE Cover_Type (label TEXT)".to_string(),
        "CREATE TABLE Cover_Examples (id INT, label TEXT)".to_string(),
        "INSERT INTO Cover_Type VALUES ('Pos')".to_string(),
        "INSERT INTO Cover_Type VALUES ('Neg')".to_string(),
    ];
    let entities: Vec<(i64, Row)> = (0..ENTITIES).map(|i| (i as i64, row_of(i))).collect();
    load.extend(entities.iter().map(|(_, r)| insert_sql(r)));
    let mut warm = Vec::with_capacity(WARM);
    for _ in 0..WARM {
        let id = rng.gen_range(0..ENTITIES) as i64;
        warm.push((id, truth(id)));
        load.push(format!(
            "INSERT INTO Cover_Examples VALUES ({id}, '{}')",
            label_text(truth(id))
        ));
    }

    let mut live: Vec<i64> = (0..ENTITIES as i64).collect();
    let mut deleted: Vec<i64> = Vec::new();
    let mut fresh = ENTITIES;
    let mut stream = Vec::with_capacity(WRITES + WRITES / READ_EVERY);
    for w in 0..WRITES {
        let roll = rng.gen_range(0..100);
        let pick = |rng: &mut StdRng, live: &[i64]| rng.gen_range(0..live.len());
        let s = if roll < 35 || (roll < 55 && fresh == ENTITIES + FRESH) {
            let id = live[pick(&mut rng, &live)];
            let mut sets: Vec<(usize, Value)> = Vec::with_capacity(4);
            for _ in 0..4 {
                let c = rng.gen_range(1..=DIM);
                if sets.iter().all(|(k, _)| *k != c) {
                    sets.push((c, Value::Float(parsed(rng.gen_range(-0.3..0.3)))));
                }
            }
            let assigns: Vec<String> = sets
                .iter()
                .map(|(c, v)| format!("c{} = {}", c - 1, lit(v.as_float().expect("float"))))
                .collect();
            Stmt {
                sql: format!("UPDATE Forest SET {} WHERE id = {id}", assigns.join(", ")),
                op: SqlOp::UpdateEntity { id, sets },
                expect: Expect::Done,
            }
        } else if roll < 55 {
            let row = row_of(fresh);
            live.push(fresh as i64);
            fresh += 1;
            Stmt {
                sql: insert_sql(&row),
                op: SqlOp::InsertEntity {
                    id: fresh as i64 - 1,
                    row,
                },
                expect: Expect::Done,
            }
        } else if roll < 70 && live.len() > ENTITIES / 2 {
            let id = live.swap_remove(pick(&mut rng, &live));
            deleted.push(id);
            Stmt {
                sql: format!("DELETE FROM Forest WHERE id = {id}"),
                op: SqlOp::DeleteEntity { id },
                expect: Expect::Done,
            }
        } else {
            let id = live[pick(&mut rng, &live)];
            Stmt {
                sql: format!(
                    "INSERT INTO Cover_Examples VALUES ({id}, '{}')",
                    label_text(truth(id))
                ),
                op: SqlOp::Feedback {
                    id,
                    label: truth(id),
                },
                expect: Expect::Done,
            }
        };
        stream.push(s);
        if w % READ_EVERY == READ_EVERY - 1 {
            let k = w / READ_EVERY;
            stream.push(match k % 3 {
                0 => Stmt {
                    sql: format!("SELECT COUNT(*) FROM {VIEW}"),
                    op: SqlOp::SelectCount,
                    expect: Expect::Count(live.len() as u64),
                },
                1 if !deleted.is_empty() => {
                    let id = deleted[rng.gen_range(0..deleted.len())];
                    Stmt {
                        sql: format!("SELECT class FROM {VIEW} WHERE id = {id}"),
                        op: SqlOp::SelectLabel { id },
                        expect: Expect::Absent,
                    }
                }
                _ => {
                    let id = live[rng.gen_range(0..live.len())];
                    Stmt {
                        sql: format!("SELECT class FROM {VIEW} WHERE id = {id}"),
                        op: SqlOp::SelectLabel { id },
                        expect: Expect::Present,
                    }
                }
            });
        }
    }

    SqlInputs {
        view: VIEW,
        schema,
        feature_fn: "numeric_columns",
        arch: Architecture::Hybrid,
        durable: true,
        load,
        create_view: format!(
            "CREATE CLASSIFICATION VIEW {VIEW} KEY id ENTITIES FROM Forest KEY id \
             LABELS FROM Cover_Type LABEL label \
             EXAMPLES FROM Cover_Examples KEY id LABEL label \
             FEATURE FUNCTION numeric_columns USING SVM ARCHITECTURE HYBRID MODE EAGER DURABLE"
        ),
        entities,
        warm,
        stream,
    }
}

/// The table as the generator left it: live rows by key, and the keys
/// deleted and not re-inserted.
fn final_table(inp: &SqlInputs) -> (BTreeMap<i64, Row>, BTreeSet<i64>) {
    let mut rows: BTreeMap<i64, Row> = inp.entities.iter().cloned().collect();
    let mut gone = BTreeSet::new();
    for s in &inp.stream {
        match &s.op {
            SqlOp::InsertEntity { id, row } => {
                rows.insert(*id, row.clone());
                gone.remove(id);
            }
            SqlOp::UpdateEntity { id, sets } => {
                let r = rows.get_mut(id).expect("generator updates live rows");
                for (c, v) in sets {
                    r[*c] = v.clone();
                }
            }
            SqlOp::DeleteEntity { id } => {
                rows.remove(id);
                gone.insert(*id);
            }
            _ => {}
        }
    }
    (rows, gone)
}

/// `w·x − b` over the row's numeric columns, L2-normalized as
/// `numeric_columns` defines them, computed here in `f64`.
fn margin(model: &LinearModel, row: &Row) -> f64 {
    let x: Vec<f64> = row.iter().skip(1).filter_map(Value::as_float).collect();
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    let dot: f64 = x
        .iter()
        .enumerate()
        .map(|(i, v)| model.w.get(i) * v / norm)
        .sum();
    dot - model.b
}

/// The oracle: every live entity's label is the sign of its margin under
/// the view's model, deleted ids have no label, and `COUNT(*)` is the
/// generator's live count. Returns `(checks, failed checks)`.
pub fn oracle(inp: &SqlInputs, db: &mut Db) -> (u64, u64) {
    let (rows, gone) = final_table(inp);
    let ids: Vec<i64> = rows.keys().chain(gone.iter()).copied().collect();
    let labels = labels_of(db, VIEW, &ids);
    let count = match db.execute(&format!("SELECT COUNT(*) FROM {VIEW}")) {
        Ok(QueryResult::Count(n)) => n,
        _ => u64::MAX,
    };
    let model = db.view_model(VIEW).expect("the view exists").clone();
    check(&model, &rows, &gone, &labels, count)
}

/// The comparisons behind [`oracle`], apart from the database.
pub fn check(
    model: &LinearModel,
    rows: &BTreeMap<i64, Row>,
    gone: &BTreeSet<i64>,
    labels: &BTreeMap<i64, Option<i8>>,
    count: u64,
) -> (u64, u64) {
    let tol = tolerance(model, 1e-5);
    let mut failed = 0u64;
    for (id, row) in rows {
        let m = margin(model, row);
        let ok = matches!(labels.get(id), Some(Some(l)) if sign_matches(*l, m, tol));
        failed += u64::from(!ok);
    }
    failed += gone
        .iter()
        .filter(|id| labels.get(id) != Some(&None))
        .count() as u64;
    failed += u64::from(count != rows.len() as u64);
    (rows.len() as u64 + gone.len() as u64 + 1, failed)
}

pub fn round(seed: u64) -> RoundOut {
    sqlpath::round(|| inputs(seed), oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Fixture = (
        LinearModel,
        BTreeMap<i64, Row>,
        BTreeSet<i64>,
        BTreeMap<i64, Option<i8>>,
    );

    fn fixture() -> Fixture {
        let model = LinearModel::from_parts(vec![1.0, -1.0], 0.1);
        let rows: BTreeMap<i64, Row> = [
            (1, vec![Value::Int(1), Value::Float(3.0), Value::Float(0.0)]),
            (2, vec![Value::Int(2), Value::Float(0.0), Value::Float(2.0)]),
        ]
        .into_iter()
        .collect();
        let gone: BTreeSet<i64> = [3].into_iter().collect();
        let labels: BTreeMap<i64, Option<i8>> = [(1, Some(1)), (2, Some(-1)), (3, None)]
            .into_iter()
            .collect();
        (model, rows, gone, labels)
    }

    #[test]
    fn accepts_labels_that_match_the_margins() {
        let (model, rows, gone, labels) = fixture();
        assert_eq!(check(&model, &rows, &gone, &labels, 2), (4, 0));
    }

    #[test]
    fn rejects_a_flipped_label() {
        let (model, rows, gone, mut labels) = fixture();
        labels.insert(2, Some(1));
        assert_eq!(check(&model, &rows, &gone, &labels, 2).1, 1);
    }

    #[test]
    fn rejects_a_label_for_a_deleted_entity() {
        let (model, rows, gone, mut labels) = fixture();
        labels.insert(3, Some(-1));
        assert_eq!(check(&model, &rows, &gone, &labels, 2).1, 1);
    }

    #[test]
    fn rejects_a_count_off_by_one() {
        let (model, rows, gone, labels) = fixture();
        assert_eq!(check(&model, &rows, &gone, &labels, 3).1, 1);
    }

    #[test]
    fn the_view_agrees_with_its_margins_on_a_real_stream() {
        let inp = inputs(11);
        let mut db = sqlpath::setup(&inp);
        let out = sqlpath::run_stream(&mut db, &inp.stream);
        assert_eq!(out.failed, 0);
        let (_, failed) = oracle(&inp, &mut db);
        assert_eq!(failed, 0);
    }
}
