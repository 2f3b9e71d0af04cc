//! Property tests for whole-query fusion (see `vamana_core::opt::fuse`
//! and `vamana_core::exec::fused`).
//!
//! One property pins the rewrite down: for arbitrary forward
//! child/descendant chains with existential predicates over arbitrary
//! generated documents, an engine with fusion *forced* (every
//! extractable candidate accepted, bypassing the cost race) must return
//! exactly what the plain pipeline returns, with and without the cost
//! gate. The generators are shared in spirit with
//! `views_prop.rs`: same alphabet, same document tape, so fused scans
//! see deep recursion, repeated names, and empty matches.

use proptest::prelude::*;
use vamana_core::{DocId, Engine, EngineOptions, MassStore};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

/// One spine step: descendant edge?, node test, optional predicate path.
type StepSpec = (bool, String, Option<String>);

fn test_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("*".to_string()),
        Just("text()".to_string()),
        Just("node()".to_string()),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Option<String>> {
    proptest::option::of(prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("b/c".to_string()),
        Just("c[a]".to_string()),
        Just(".//b".to_string()),
    ])
}

fn steps_strategy() -> impl Strategy<Value = Vec<StepSpec>> {
    proptest::collection::vec((any::<bool>(), test_strategy(), pred_strategy()), 2..5)
}

fn render(steps: &[StepSpec]) -> String {
    let mut s = String::new();
    for (descendant, test, pred) in steps {
        s.push_str(if *descendant { "//" } else { "/" });
        s.push_str(test);
        if let Some(p) = pred {
            s.push('[');
            s.push_str(p);
            s.push(']');
        }
    }
    s
}

/// Builds a small XML document from a stack-machine tape (same scheme
/// as `views_prop.rs`): open a child, close the current element, or
/// emit a leaf — names drawn from the pattern alphabet so matches are
/// likely; odd tape values add text so `text()` steps have targets.
fn build_doc(ops: &[(u8, u8)]) -> String {
    let mut xml = String::from("<a>");
    let mut stack = vec!["a"];
    for &(n, action) in ops {
        let name = NAMES[(n % 4) as usize];
        match action % 4 {
            0 if stack.len() < 6 => {
                xml.push('<');
                xml.push_str(name);
                xml.push('>');
                stack.push(name);
            }
            1 if stack.len() > 1 => {
                let t = stack.pop().unwrap();
                xml.push_str("</");
                xml.push_str(t);
                xml.push('>');
            }
            2 => {
                xml.push('t');
            }
            _ => {
                xml.push('<');
                xml.push_str(name);
                xml.push_str("/>");
            }
        }
    }
    while let Some(t) = stack.pop() {
        xml.push_str("</");
        xml.push_str(t);
        xml.push('>');
    }
    xml
}

fn engine_for(xml: &str, options: EngineOptions) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("d", xml).expect("load generated doc");
    let mut engine = Engine::new(store);
    *engine.options_mut() = options;
    engine
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Forced fusion is invisible: forced and cost-gated fused runs
    /// both equal the plain pipeline on random forward chains over
    /// random documents.
    #[test]
    fn fused_execution_matches_the_plain_pipeline(
        steps in steps_strategy(),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
    ) {
        let xpath = render(&steps);
        let xml = build_doc(&ops);
        let doc = DocId(0);
        // Oracle: nothing fused.
        let oracle = engine_for(&xml, EngineOptions::default());
        let expected = oracle.query_doc(doc, &xpath).unwrap();
        for force in [true, false] {
            let subject = engine_for(&xml, EngineOptions {
                fuse: true,
                fuse_force: force,
                ..EngineOptions::default()
            });
            let got = subject.query_doc(doc, &xpath).unwrap();
            prop_assert_eq!(
                &got,
                &expected,
                "fusion changed {} (forced={})",
                xpath,
                force
            );
        }
    }
}

/// The property above is vacuous if the generator never produces a
/// fusable chain: check that a healthy share of deterministic samples
/// actually executes a fused operator under forced fusion.
#[test]
fn generator_yield_sanity() {
    let mut fused_runs = 0;
    let total = 60u64;
    for i in 0..total {
        let steps: Vec<StepSpec> = (0..2 + (i % 3))
            .map(|j| {
                let k = i.wrapping_mul(31).wrapping_add(j * 7);
                (
                    k % 2 == 0,
                    NAMES[(k % 4) as usize].to_string(),
                    (k % 3 == 0).then(|| NAMES[(k % 4) as usize].to_string()),
                )
            })
            .collect();
        let xpath = render(&steps);
        let ops: Vec<(u8, u8)> = (0..40u64)
            .map(|j| {
                let k = i.wrapping_mul(131).wrapping_add(j * 17);
                (k as u8, (k / 7) as u8)
            })
            .collect();
        let subject = engine_for(
            &build_doc(&ops),
            EngineOptions {
                fuse: true,
                fuse_force: true,
                ..EngineOptions::default()
            },
        );
        subject.query_doc(DocId(0), &xpath).unwrap();
        if subject.fused_stats().0 > 0 {
            fused_runs += 1;
        }
    }
    assert!(
        fused_runs >= total / 2,
        "only {fused_runs}/{total} sample chains executed fused"
    );
}
