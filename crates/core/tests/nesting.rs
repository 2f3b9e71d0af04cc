//! The XPath nesting limit end to end: for every construct that nests
//! the syntax tree, the deepest query the parser accepts compiles,
//! optimizes and evaluates on a default-sized (2 MiB) thread, and one
//! level more is rejected with a typed error instead of overflowing the
//! stack.

use vamana_core::{DocId, Engine, EngineError, MassStore};
use vamana_xpath::{ParseErrorKind, MAX_NESTING};

/// One nesting shape: the query with `k` repetitions of the construct.
type Shape = (&'static str, fn(usize) -> String);

const SHAPES: [Shape; 8] = [
    ("parentheses", |k| {
        format!("{}1{}", "(".repeat(k), ")".repeat(k))
    }),
    ("unary minus", |k| format!("{}1", "-".repeat(k))),
    ("function calls", |k| {
        format!("{}true(){}", "not(".repeat(k), ")".repeat(k))
    }),
    ("arithmetic chain", |k| format!("1{}", "+1".repeat(k))),
    ("union chain", |k| format!("//a{}", "|//a".repeat(k))),
    ("step chain", |k| "/a".repeat(k + 1)),
    ("nested predicates", |k| {
        format!("//a{}{}", "[a".repeat(k), "]".repeat(k))
    }),
    ("predicate in parentheses", |k| {
        format!("//a{}", "[(a)".repeat(k) + &"]".repeat(k))
    }),
];

fn engine() -> Engine {
    let mut store = MassStore::open_memory();
    store
        .load_xml("doc", &format!("{}{}", "<a>".repeat(8), "</a>".repeat(8)))
        .unwrap();
    Engine::new(store)
}

fn too_deep(result: Result<impl std::fmt::Debug, EngineError>) -> bool {
    matches!(result, Err(EngineError::Parse(e)) if e.kind == ParseErrorKind::TooDeep)
}

/// The largest repetition count `shape` accepts.
fn deepest(shape: fn(usize) -> String) -> usize {
    let k = (1..=MAX_NESTING)
        .find(|&k| vamana_xpath::parse(&shape(k)).is_err())
        .expect("every shape reaches the limit within MAX_NESTING repetitions");
    k - 1
}

#[test]
fn deepest_accepted_query_evaluates_on_a_default_thread() {
    let e = engine();
    for (name, shape) in SHAPES {
        let k = deepest(shape);
        assert!(k >= MAX_NESTING / 4, "{name}: only {k} levels accepted");
        let at_limit = shape(k);
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(s, || {
                    e.evaluate(DocId(0), &at_limit)
                        .unwrap_or_else(|err| panic!("{name} at the limit: {err}"));
                })
                .unwrap()
                .join()
                .unwrap_or_else(|_| panic!("{name} at the limit panicked"));
        });
        assert!(
            too_deep(e.evaluate(DocId(0), &shape(k + 1))),
            "{name}: one level past the limit must be TooDeep"
        );
    }
}

#[test]
fn hostile_depth_is_a_typed_error() {
    let e = engine();
    for xpath in [
        format!("{}1{}", "(".repeat(50_000), ")".repeat(50_000)),
        "-".repeat(50_000) + "1",
        "/a".repeat(50_000),
    ] {
        assert!(too_deep(e.query_doc(DocId(0), &xpath)));
        assert!(too_deep(e.evaluate(DocId(0), &xpath)));
    }
}
