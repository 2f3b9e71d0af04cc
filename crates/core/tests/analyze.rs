//! `EXPLAIN ANALYZE` rendering: golden output and instrumentation
//! hygiene (no drift when disabled, no profile
//! carry-over between queries).

use vamana_core::{DocId, Engine, MassStore};

/// ~3600 elements so scan queries span many pages and batches.
fn big_doc() -> String {
    let mut xml = String::from("<site>");
    for s in 0..12 {
        xml.push_str(&format!("<section id='s{s}'>"));
        for i in 0..100 {
            xml.push_str(&format!(
                "<item><name>n{s}_{i}</name><price>{}</price></item>",
                i % 17
            ));
        }
        xml.push_str("</section>");
    }
    xml.push_str("</site>");
    xml
}

fn engine() -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &big_doc()).unwrap();
    Engine::new(store)
}

fn small_engine() -> Engine {
    let mut store = MassStore::open_memory();
    store
        .load_xml(
            "doc",
            "<site><person id='p0'><name>Yung Flach</name></person>\
             <person id='p1'><name>Someone Else</name></person></site>",
        )
        .unwrap();
    Engine::new(store)
}

/// The full `.analyze` rendering, pinned: estimate cards, actual rows,
/// q-errors, and the misestimation summary. This is the golden test for
/// the text surface — if it moves, the CLI and server output move too.
#[test]
fn golden_analyze_render() {
    let engine = small_engine();
    let analysis = engine.analyze_doc(DocId(0), "//person/name").unwrap();
    let expected = "\
optimized plan (Σ tuple volume 12, 0 rules applied), 2 rows:
R0  [IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
  └─ φ3 child::name  [COUNT=2 IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
    └─ φ2 descendant::person  [COUNT=2 IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
misestimations: none above ×1.05
";
    assert_eq!(analysis.render(), expected);
}

/// Repeated ANALYZE of the same query yields identical actuals, and
/// stats-disabled runs in between record nowhere (each analysis carries
/// its own counter tree; the plain query path has none at all).
#[test]
fn repeated_analyze_has_no_counter_drift() {
    let e = engine();
    let first = e.analyze_doc(DocId(0), "//item/name").unwrap();
    for _ in 0..3 {
        e.query_doc(DocId(0), "//item/name").unwrap();
    }
    let second = e.analyze_doc(DocId(0), "//item/name").unwrap();
    // Everything but wall time is deterministic run to run.
    let stable = |a: &vamana_core::ExecStatsSnapshot| -> Vec<(u64, u64, u64, u64, u64)> {
        a.ops
            .iter()
            .map(|o| (o.invocations, o.rows, o.batches, o.probes, o.pins))
            .collect()
    };
    assert_eq!(stable(&first.actuals), stable(&second.actuals));
    assert_eq!(first.render(), second.render());
}

/// Profile counters are per-query deltas: a big batched scan followed
/// by a tiny index-answered query on the same engine must not leak
/// batch-pin counts into the second profile.
#[test]
fn profile_counters_reset_between_queries() {
    let e = engine();
    let (_, big) = e.query_doc_profiled(DocId(0), "/site//*").unwrap();
    assert!(big.batch_pins > 0, "big scan should pin pages in batches");
    // `//section` is answered from the name index: no page traffic.
    let (rows, small) = e.query_doc_profiled(DocId(0), "//section").unwrap();
    assert_eq!(rows.len(), 12);
    assert_eq!(small.batch_pins, 0, "batch pins leaked");
    assert_eq!(small.pins_saved, 0, "saved pins leaked");
}
