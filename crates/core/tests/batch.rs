//! Batch-boundary edge cases for the pipeline.
//!
//! A stream's tuple sequence must not depend on how it is pulled: same
//! nodes, same pipeline order, no duplicates or gaps at batch
//! boundaries, regardless of where a batch ends relative to pages,
//! contexts, predicates, or a consumer-imposed row limit. The reference
//! is the single-tuple drain, which crosses a pull boundary after every
//! tuple; where the document makes it easy, the reference itself is
//! checked against counts and values worked out from the document.

use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, MassStore, NodeEntry};

fn engine_from(xml: &str) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", xml).unwrap();
    Engine::new(store)
}

/// `<r><e>0</e>…<e>{n-1}</e></r>`.
fn numbered(n: usize) -> String {
    let mut xml = String::from("<r>");
    for i in 0..n {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    xml
}

/// Drain of `xpath` in pipeline order, one tuple per pull.
fn single_tuple_drain(engine: &Engine, xpath: &str) -> Vec<NodeEntry> {
    let mut out = Vec::new();
    let mut stream = engine.stream(DocId(0), xpath).unwrap();
    while stream.next_batch(&mut out, 1).unwrap() > 0 {}
    out
}

/// [`single_tuple_drain`] of `//e` over [`numbered`]`(n)`, checked to be
/// the `n` elements in document order.
fn numbered_reference(engine: &Engine, n: usize) -> Vec<NodeEntry> {
    let expected = single_tuple_drain(engine, "//e");
    let want: Vec<String> = (0..n).map(|i| i.to_string()).collect();
    assert_eq!(engine.string_values(&expected).unwrap(), want);
    expected
}

#[test]
fn short_batch_then_exhausted() {
    // Fewer matches than `max`: one short batch, then a clean zero.
    let e = engine_from("<r><a/><a/><a/></r>");
    let expected = single_tuple_drain(&e, "//a");
    assert_eq!(expected.len(), 3);
    let mut stream = e.stream(DocId(0), "//a").unwrap();
    let mut out = Vec::new();
    assert_eq!(stream.next_batch(&mut out, BATCH_SIZE).unwrap(), 3);
    assert_eq!(out, expected);
    assert_eq!(stream.next_batch(&mut out, BATCH_SIZE).unwrap(), 0);
    assert_eq!(stream.next_batch(&mut out, BATCH_SIZE).unwrap(), 0);
    assert!(
        stream.next().unwrap().is_none(),
        "exhausted stays exhausted"
    );
}

#[test]
fn small_max_pulls_have_no_gaps_or_duplicates() {
    // A `max` far below the result size cuts every batch mid-stream; the
    // concatenation must still be the exact reference sequence.
    let e = engine_from(&numbered(1000));
    let expected = numbered_reference(&e, 1000);
    for max in [2, 7, 10, 256] {
        let mut stream = e.stream(DocId(0), "//e").unwrap();
        let mut out = Vec::new();
        loop {
            let n = stream.next_batch(&mut out, max).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= max, "over-filled batch: {n} > {max}");
        }
        assert_eq!(out, expected, "max {max}");
    }
}

#[test]
fn limit_cuts_a_batch_midway() {
    // A consumer that stops after `limit` rows (the server's LIMIT, the
    // shell's .limit) must see exactly the first `limit` tuples of the
    // full sequence, even when the limit lands inside a batch.
    let e = engine_from(&numbered(600));
    let expected = numbered_reference(&e, 600);
    for limit in [1, 10, BATCH_SIZE - 1, BATCH_SIZE + 1, 599] {
        let mut stream = e.stream(DocId(0), "//e").unwrap();
        let mut out = Vec::new();
        while out.len() < limit {
            let want = limit - out.len();
            let n = stream.next_batch(&mut out, want).unwrap();
            if n == 0 {
                break;
            }
        }
        assert_eq!(out, expected[..limit], "limit {limit}");
        // The stream is still usable past the cut.
        assert_eq!(
            stream.next().unwrap().as_ref(),
            expected.get(limit),
            "tuple after the cut at {limit}"
        );
    }
}

#[test]
fn predicate_inner_path_crosses_batch_boundaries() {
    // Predicates re-anchor their inner context path at every tuple under
    // test (paper §V-B). With more tuples than one batch holds, inner
    // paths run for tuples on both sides of each boundary.
    let n = 2 * BATCH_SIZE + 37;
    let mut xml = String::from("<r>");
    for i in 0..n {
        if i % 3 == 0 {
            xml.push_str("<p><x/><v>keep</v></p>");
        } else {
            xml.push_str("<p><v>drop</v></p>");
        }
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    let kept = n.div_ceil(3);
    for (xpath, rows) in [
        ("//p[x]", kept),
        ("//p[x]/v", kept),
        ("//p[not(x)]", n - kept),
    ] {
        let expected = single_tuple_drain(&e, xpath);
        assert_eq!(expected.len(), rows, "{xpath}");
        let mut stream = e.stream(DocId(0), xpath).unwrap();
        let mut out = Vec::new();
        while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
        assert_eq!(out, expected, "{xpath}");
        // And through the materializing API with set semantics.
        assert_eq!(
            e.query(xpath).unwrap(),
            expected,
            "{xpath} under set semantics"
        );
    }
    let v = e.query("//p[x]/v").unwrap();
    assert!(e.string_values(&v).unwrap().iter().all(|s| s == "keep"));
}

#[test]
fn interleaved_scalar_and_batch_pulls_preserve_order() {
    // Mixing next() and next_batch() on one stream must not reorder,
    // duplicate, or drop tuples (next() buffers a batch internally).
    let e = engine_from(&numbered(700));
    let expected = numbered_reference(&e, 700);
    let mut stream = e.stream(DocId(0), "//e").unwrap();
    let mut out = Vec::new();
    // 3 scalar pulls, then a batch, then scalar again, then drain.
    for _ in 0..3 {
        out.push(stream.next().unwrap().unwrap());
    }
    stream.next_batch(&mut out, 10).unwrap();
    out.push(stream.next().unwrap().unwrap());
    while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
    assert_eq!(out, expected);
}

#[test]
fn unions_and_value_steps_are_pull_size_invariant() {
    let mut xml = String::from("<r>");
    for i in 0..400 {
        xml.push_str(&format!("<a n='{i}'>{}</a><b>{i}</b>", i % 10));
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    for (xpath, rows) in [
        ("//a | //b", 800),
        ("//a[.='5']", 40),
        ("//a[@n='37']", 1),
        ("//b[. > 395]", 4),
    ] {
        let mut reference = single_tuple_drain(&e, xpath);
        reference.sort_by(|a, b| a.key.cmp(&b.key));
        reference.dedup_by(|a, b| a.key == b.key);
        let got = e.query(xpath).unwrap();
        assert_eq!(got.len(), rows, "{xpath}");
        assert_eq!(got, reference, "{xpath}");
    }
}
