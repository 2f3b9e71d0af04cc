//! Executor-level semantics tests: operator state machine behavior,
//! whole-set vs per-group positions, reverse-axis positions, value-step
//! kinds, and the programmatic Join operator that the XPath compiler
//! never emits.

use vamana_core::exec::{self, Env};
use vamana_core::plan::{BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use vamana_core::{DocId, Engine, MassStore};
use vamana_flex::Axis;
use vamana_mass::{NodeEntry, RecordKind};

const DOC: &str = r#"<site>
  <people>
    <person id="p0"><name>Ann</name><age>31</age></person>
    <person id="p1"><name>Bob</name><age>17</age></person>
    <person id="p2"><name>Cyd</name><age>31</age></person>
  </people>
  <limits><limit>31</limit><limit>99</limit></limits>
</site>"#;

fn engine() -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", DOC).unwrap();
    Engine::new(store)
}

fn values(e: &Engine, q: &str) -> Vec<String> {
    let r = e.query(q).unwrap();
    e.string_values(&r).unwrap()
}

#[test]
fn per_step_positions_are_per_context_group() {
    let e = engine();
    // name[1] per person: every person's first name element.
    assert_eq!(values(&e, "//person/name[1]"), vec!["Ann", "Bob", "Cyd"]);
    // (//person/name)[1]: first across the whole set.
    assert_eq!(values(&e, "(//person/name)[1]"), vec!["Ann"]);
}

#[test]
fn reverse_axis_positions_count_backwards() {
    let e = engine();
    // ancestor::*[1] of a name is its person (nearest first).
    let r = e.query("//name/ancestor::*[1]").unwrap();
    let names = e.names_of(&r).unwrap();
    assert!(names.iter().all(|n| n == "person"), "{names:?}");
    // ancestor::*[2] is people.
    let r = e.query("//name/ancestor::*[2]").unwrap();
    let names = e.names_of(&r).unwrap();
    assert!(names.iter().all(|n| n == "people"), "{names:?}");
}

#[test]
fn predicates_chain_with_recomputed_positions() {
    let e = engine();
    // Persons with age 31 → [Ann, Cyd]; of those, the second.
    assert_eq!(values(&e, "//person[age=31][2]/name"), vec!["Cyd"]);
    // Order matters: //person[2][age=31] → person 2 is Bob (17) → empty.
    assert_eq!(values(&e, "//person[2][age=31]/name"), Vec::<String>::new());
}

#[test]
fn value_step_distinguishes_text_and_attribute_hits() {
    let e = engine();
    // '31' occurs as two age texts and one limit text; p1 as attr only.
    assert_eq!(e.query("//age[text()='31']").unwrap().len(), 2);
    assert_eq!(e.query("//person[@id='p1']").unwrap().len(), 1);
    // The literal 'p1' never matches text() anywhere.
    assert_eq!(e.query("//person[text()='p1']").unwrap().len(), 0);
}

#[test]
fn exists_fast_path_agrees_with_general_path() {
    let e = engine();
    // [name] takes the index-only fast path; [name or name] does not.
    let fast = e.query("//person[name]").unwrap();
    let slow = e.query("//person[name or name]").unwrap();
    assert_eq!(fast, slow);
    let fast = e.query("//name[parent::person]").unwrap();
    let slow = e.query("//name[parent::person or parent::person]").unwrap();
    assert_eq!(fast, slow);
}

#[test]
fn join_operator_semi_joins_on_values() {
    // Programmatic plan: J_EQ(//age, //limit) — ages whose value equals
    // some limit value (31).
    let e = engine();
    let mut plan = QueryPlan::new(Vec::new(), OpId(0));
    let root = plan.push(Operator::Root { child: None });
    let ages = plan.push(Operator::Step {
        axis: Axis::Descendant,
        test: TestSpec::Named("age".into()),
        context: None,
        source: ContextSource::QueryRoot,
        predicates: vec![],
    });
    let limits = plan.push(Operator::Step {
        axis: Axis::Descendant,
        test: TestSpec::Named("limit".into()),
        context: None,
        source: ContextSource::QueryRoot,
        predicates: vec![],
    });
    let join = plan.push(Operator::Join {
        op: BinOp::Eq,
        left: ages,
        right: limits,
    });
    *plan.op_mut(root) = Operator::Root { child: Some(join) };
    plan.set_root(root);

    let result = e.execute_plan(&plan, DocId(0)).unwrap();
    assert_eq!(result.len(), 2); // Ann's and Cyd's age elements
    assert!(e.string_values(&result).unwrap().iter().all(|v| v == "31"));
}

#[test]
fn pipeline_is_lazy_for_exists() {
    // An exists over a huge axis must not scan everything: verified
    // behaviorally via buffer stats — [name] on the first person should
    // touch far fewer pages than a full scan.
    let mut xml = String::from("<r>");
    for i in 0..20_000 {
        xml.push_str(&format!("<e><name>n{i}</name></e>"));
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("big", &xml).unwrap();
    let e = Engine::new(store);

    e.store().buffer_pool().reset_stats();
    let r = e.query("(//e)[1][name]").unwrap();
    assert_eq!(r.len(), 1);
    let touched = {
        let s = e.store().stats().buffer;
        s.hits + s.misses
    };
    let total_pages = e.store().stats().pages as u64;
    assert!(
        touched < total_pages / 2,
        "exists should not scan the store: touched {touched} of {total_pages} pages"
    );
}

#[test]
fn operator_states_drive_a_manual_pull() {
    // Drive the executor by hand through Env/build_iter to observe the
    // INITIAL → FETCHING → OUT_OF_TUPLES protocol indirectly: the
    // iterator yields exactly COUNT tuples and then stays exhausted.
    let e = engine();
    let plan = e.compile("//person").unwrap();
    let plan = e.optimize_plan(plan, DocId(0)).unwrap().plan;
    let doc_key = e.store().documents()[0].doc_key.clone();
    let root_ctx = NodeEntry {
        key: doc_key,
        kind: RecordKind::Document,
        name: None,
    };
    let env = Env {
        plan: &plan,
        store: e.store(),
        root_ctx: &root_ctx,
        stats: None,
    };
    let top = match plan.op(plan.root()) {
        Operator::Root { child } => child.unwrap(),
        _ => unreachable!(),
    };
    let mut iter = exec::build_iter(env, top, None).unwrap();
    let mut out = Vec::new();
    while iter.next_batch(env, &mut out, 1).unwrap() > 0 {}
    assert_eq!(out.len(), 3);
    assert_eq!(
        iter.next_batch(env, &mut out, exec::BATCH_SIZE).unwrap(),
        0,
        "exhausted iterator must stay exhausted"
    );
    assert_eq!(iter.next_batch(env, &mut out, 1).unwrap(), 0);
}

#[test]
fn range_rewrite_executes_correctly_end_to_end() {
    let e = engine();
    // ages > 20 → 31, 31.
    assert_eq!(values(&e, "//age[text() > 20]"), vec!["31", "31"]);
    assert_eq!(values(&e, "//age[text() < 20]"), vec!["17"]);
    assert_eq!(values(&e, "//age[text() >= 31]").len(), 2);
    // The rewrite fires when the range is selective (`< 20` matches one
    // node database-wide)...
    let ex = e.explain(DocId(0), "//age[text() < 20]").unwrap();
    assert!(ex.applied.contains(&"range-index-step"), "{:?}", ex.applied);
    // ...and is correctly rejected by costing when the numeric index
    // over-fetches (`> 20` also matches both `limit` values, so the
    // range step would handle more tuples than the default step).
    let ex = e.explain(DocId(0), "//age[text() > 20]").unwrap();
    assert!(
        !ex.applied.contains(&"range-index-step"),
        "{:?}",
        ex.applied
    );
}
