//! `sql_feedback`: the paper's Example 2.1 through `Db::execute`.
//!
//! A text table of papers and a `tf_bag_of_words` view declared
//! `USING SVM ARCHITECTURE HAZY_MM MODE EAGER`. Each step inserts one
//! feedback row (a training example) and then reads one Zipf-chosen
//! paper's class, so every SELECT follows a write; a few new papers and
//! `COUNT(*)`s are mixed in.

use std::collections::{BTreeMap, BTreeSet};

use hazy_core::Architecture;
use hazy_datagen::{CorpusConfig, DocumentCorpus, Zipf};
use hazy_rdbms::{ColumnType, Db, QueryResult, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{margin, sign_matches, tolerance};
use crate::report::RoundOut;
use crate::sqlpath::{self, labels_of, Expect, SqlInputs, SqlOp, Stmt};

pub const VIEW: &str = "Labeled_Papers";
/// Papers loaded before the view is declared.
const PAPERS: usize = 4_000;
/// Papers inserted during the stream.
const NEW_PAPERS: usize = 40;
/// Feedback rows present when the view is declared (its warm model).
const WARM: usize = 1_000;
/// Feedback-then-read steps in the stream.
const STEPS: usize = 500;
/// The corpus is fixed; `--seed` draws the statement stream over it.
const CORPUS_SEED: u64 = 0xD0C5;

fn label_text(y: i8) -> &'static str {
    if y > 0 {
        "DB"
    } else {
        "NonDB"
    }
}

pub fn inputs(seed: u64) -> SqlInputs {
    let corpus = DocumentCorpus::generate(CorpusConfig {
        n_docs: PAPERS + NEW_PAPERS,
        vocab: 4_000,
        abstract_len: 24,
        topic_words: 40,
        topic_mix: 0.35,
        seed: CORPUS_SEED,
    });
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFEED_BAC4);
    let schema = Schema::new(vec![
        ("id".into(), ColumnType::Int),
        ("title".into(), ColumnType::Text),
        ("abstract".into(), ColumnType::Text),
    ]);
    let row_of = |i: usize| {
        let d = &corpus.docs[i];
        vec![
            Value::Int(d.id as i64),
            Value::Text(d.title.clone()),
            Value::Text(d.body.clone()),
        ]
    };
    let insert_sql = |i: usize| {
        let d = &corpus.docs[i];
        format!(
            "INSERT INTO Papers VALUES ({}, '{}', '{}')",
            d.id, d.title, d.body
        )
    };
    let truth = |id: i64| corpus.docs[id as usize].label;

    let mut load = vec![
        "CREATE TABLE Papers (id INT PRIMARY KEY, title TEXT, abstract TEXT)".to_string(),
        "CREATE TABLE Paper_Area (label TEXT)".to_string(),
        "CREATE TABLE Example_Papers (id INT, label TEXT)".to_string(),
        "INSERT INTO Paper_Area VALUES ('DB')".to_string(),
        "INSERT INTO Paper_Area VALUES ('NonDB')".to_string(),
    ];
    load.extend((0..PAPERS).map(insert_sql));
    let mut warm = Vec::with_capacity(WARM);
    for _ in 0..WARM {
        let id = rng.gen_range(0..PAPERS) as i64;
        warm.push((id, truth(id)));
        load.push(format!(
            "INSERT INTO Example_Papers VALUES ({id}, '{}')",
            label_text(truth(id))
        ));
    }

    // hot papers sit at scattered ids: rank r maps to (r * 7919) mod PAPERS
    let zipf = Zipf::new(PAPERS, 1.0);
    let mut live = PAPERS;
    let mut stream = Vec::with_capacity(STEPS * 2 + NEW_PAPERS + STEPS / 20);
    for step in 0..STEPS {
        let id = rng.gen_range(0..live) as i64;
        stream.push(Stmt {
            sql: format!(
                "INSERT INTO Example_Papers VALUES ({id}, '{}')",
                label_text(truth(id))
            ),
            op: SqlOp::Feedback {
                id,
                label: truth(id),
            },
            expect: Expect::Done,
        });
        let id = ((zipf.sample(&mut rng) * 7919) % PAPERS) as i64;
        stream.push(Stmt {
            sql: format!("SELECT class FROM {VIEW} WHERE id = {id}"),
            op: SqlOp::SelectLabel { id },
            expect: Expect::Present,
        });
        if step % 10 == 5 && live < PAPERS + NEW_PAPERS {
            stream.push(Stmt {
                sql: insert_sql(live),
                op: SqlOp::InsertEntity {
                    id: live as i64,
                    row: row_of(live),
                },
                expect: Expect::Done,
            });
            live += 1;
        }
        if step % 20 == 10 {
            stream.push(Stmt {
                sql: format!("SELECT COUNT(*) FROM {VIEW}"),
                op: SqlOp::SelectCount,
                expect: Expect::Count(live as u64),
            });
        }
    }

    SqlInputs {
        view: VIEW,
        schema,
        feature_fn: "tf_bag_of_words",
        arch: Architecture::HazyMem,
        durable: false,
        load,
        create_view: format!(
            "CREATE CLASSIFICATION VIEW {VIEW} KEY id ENTITIES FROM Papers KEY id \
             LABELS FROM Paper_Area LABEL label \
             EXAMPLES FROM Example_Papers KEY id LABEL label \
             FEATURE FUNCTION tf_bag_of_words USING SVM ARCHITECTURE HAZY_MM MODE EAGER"
        ),
        entities: (0..PAPERS).map(|i| (i as i64, row_of(i))).collect(),
        warm,
        stream,
    }
}

/// Every paper id the generator put in the table.
fn all_ids(inp: &SqlInputs) -> Vec<i64> {
    let mut ids: Vec<i64> = inp.entities.iter().map(|(id, _)| *id).collect();
    ids.extend(inp.stream.iter().filter_map(|s| match s.op {
        SqlOp::InsertEntity { id, .. } => Some(id),
        _ => None,
    }));
    ids
}

fn ids_of(db: &mut Db, class: i8) -> Vec<u64> {
    match db.execute(&format!("SELECT id FROM {VIEW} WHERE class = {class}")) {
        Ok(QueryResult::Ids(ids)) => ids,
        _ => Vec::new(),
    }
}

/// The final-state oracle: the same statements fed to a `NAIVE_MM` view
/// (the paper's non-incremental baseline) must give every paper the same
/// label; that label must be the sign of the paper's margin under the
/// view's current model, computed here (so a fault both views share still
/// shows); and the view's own listings must agree with its count and
/// partition the generated ids. Returns `(checks, failed checks)`.
pub fn oracle(inp: &SqlInputs, db: &mut Db) -> (u64, u64) {
    let mut naive = Db::new();
    for sql in &inp.load {
        naive.execute(sql).expect("set-up statements replay");
    }
    naive
        .execute(&inp.create_view.replace("HAZY_MM", "NAIVE_MM"))
        .expect("the baseline view declares");
    for s in inp.stream.iter().filter(|s| !s.is_read()) {
        naive.execute(&s.sql).expect("stream writes replay");
    }
    let ids = all_ids(inp);
    let got = labels_of(db, VIEW, &ids);
    let want = labels_of(&mut naive, VIEW, &ids);
    let model = db.view_model(VIEW).expect("the view exists").clone();
    let margins: BTreeMap<i64, f64> = sqlpath::final_features(inp)
        .iter()
        .map(|(id, f)| (*id, margin(&model, f)))
        .collect();
    let count = match db.execute(&format!("SELECT COUNT(*) FROM {VIEW} WHERE class = 1")) {
        Ok(QueryResult::Count(n)) => n,
        _ => u64::MAX,
    };
    let answers = Answers {
        labels: got,
        count_pos: count,
        pos: ids_of(db, 1),
        neg: ids_of(db, -1),
    };
    check(&ids, &answers, &want, &margins, tolerance(&model, 1e-6))
}

/// What the view answered after the stream.
pub struct Answers {
    pub labels: BTreeMap<i64, Option<i8>>,
    /// `SELECT COUNT(*) … WHERE class = 1`.
    pub count_pos: u64,
    /// `SELECT id … WHERE class = 1` and `… class = -1`.
    pub pos: Vec<u64>,
    pub neg: Vec<u64>,
}

/// The comparisons behind [`oracle`], apart from the database so a test
/// can feed them corrupted answers.
pub fn check(
    ids: &[i64],
    got: &Answers,
    want: &BTreeMap<i64, Option<i8>>,
    margins: &BTreeMap<i64, f64>,
    tol: f64,
) -> (u64, u64) {
    let mut failed = ids
        .iter()
        .filter(|id| {
            !matches!(got.labels.get(id), Some(Some(l))
                if want.get(id) == Some(&Some(*l))
                    && margins.get(id).is_some_and(|m| sign_matches(*l, *m, tol)))
        })
        .count() as u64;
    failed += u64::from(got.count_pos != got.pos.len() as u64);
    let p: BTreeSet<u64> = got.pos.iter().copied().collect();
    let n: BTreeSet<u64> = got.neg.iter().copied().collect();
    let all: BTreeSet<u64> = ids.iter().map(|&i| i as u64).collect();
    let partitions = p.len() == got.pos.len()
        && n.len() == got.neg.len()
        && p.is_disjoint(&n)
        && p.union(&n).copied().collect::<BTreeSet<u64>>() == all;
    failed += u64::from(!partitions);
    (ids.len() as u64 + 2, failed)
}

pub fn round(seed: u64) -> RoundOut {
    sqlpath::round(|| inputs(seed), oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four papers, their labels, and margins that agree with them.
    fn agreeing() -> (Vec<i64>, Answers, BTreeMap<i64, f64>) {
        let ids = vec![0, 1, 2, 3];
        let labels: BTreeMap<i64, Option<i8>> =
            [(0, Some(1)), (1, Some(-1)), (2, Some(1)), (3, Some(-1))]
                .into_iter()
                .collect();
        let margins: BTreeMap<i64, f64> = [(0, 0.5), (1, -0.5), (2, 0.25), (3, -0.25)]
            .into_iter()
            .collect();
        let answers = Answers {
            labels,
            count_pos: 2,
            pos: vec![0, 2],
            neg: vec![1, 3],
        };
        (ids, answers, margins)
    }

    #[test]
    fn accepts_agreeing_answers() {
        let (ids, a, m) = agreeing();
        assert_eq!(check(&ids, &a, &a.labels, &m, 1e-9), (6, 0));
    }

    #[test]
    fn rejects_a_flipped_label() {
        let (ids, mut a, m) = agreeing();
        let want = a.labels.clone();
        a.labels.insert(2, Some(-1));
        assert_eq!(check(&ids, &a, &want, &m, 1e-9).1, 1);
    }

    #[test]
    fn rejects_a_label_both_views_share_against_its_margin() {
        let (ids, mut a, m) = agreeing();
        a.labels.insert(2, Some(-1));
        let want = a.labels.clone();
        assert_eq!(check(&ids, &a, &want, &m, 1e-9).1, 1);
    }

    #[test]
    fn rejects_a_count_off_by_one() {
        let (ids, mut a, m) = agreeing();
        a.count_pos = 3;
        assert_eq!(check(&ids, &a, &a.labels.clone(), &m, 1e-9).1, 1);
    }

    #[test]
    fn rejects_listings_that_do_not_partition() {
        let (ids, mut a, m) = agreeing();
        a.neg = vec![1];
        assert_eq!(check(&ids, &a, &a.labels.clone(), &m, 1e-9).1, 1);
        a.neg = vec![1, 2, 3];
        assert_eq!(check(&ids, &a, &a.labels.clone(), &m, 1e-9).1, 1);
    }

    #[test]
    fn the_naive_baseline_agrees_on_a_real_stream() {
        let inp = inputs(7);
        let mut db = sqlpath::setup(&inp);
        let out = sqlpath::run_stream(&mut db, &inp.stream);
        assert_eq!(out.failed, 0);
        let (checks, failed) = oracle(&inp, &mut db);
        assert_eq!(failed, 0);
        assert_eq!(checks, all_ids(&inp).len() as u64 + 2);
    }
}
