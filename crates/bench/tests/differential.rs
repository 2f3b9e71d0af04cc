//! The differential matrix: every query of the XMark evaluation and scan
//! suites, run under every combination of page format (v1, v2),
//! semantic cache (off, cost-gated, greedy; each query run cold, warm
//! and hot) and whole-query fusion (off, cost-gated, forced). Every result must be byte-identical to a
//! plain v1 engine's — FLEX keys are deterministic for a given load
//! order, so whole [`NodeEntry`] sequences compare across stores — and
//! must agree with the `vamana-baseline` DOM oracle on names and string
//! values, in document order.
//!
//! Queries outside the containment or fusable fragment (reverse axes,
//! sibling axes, value predicates) must pass through those stages
//! untouched, which the same comparisons check. Cases the matrix cannot
//! express — raw pipeline tuple order under every pull size, scalar
//! `evaluate` output, and
//! view compensation over deliberately general views — follow as
//! separate tests.

use vamana_baseline::{NodeIdentity, XPathEngine as _};
use vamana_bench::{QUERIES, SCAN_QUERIES};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, MassStore, NodeEntry};
use vamana_mass::StoreFormat;

const DOC: DocId = DocId(0);

fn all_queries() -> impl Iterator<Item = (&'static str, &'static str)> {
    QUERIES.iter().chain(SCAN_QUERIES).copied()
}

/// The semantic-cache setting of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Views {
    Off,
    /// Views admitted on first sight, rewrites kept only when the cost
    /// model agrees.
    CostGated,
    /// Every sound rewrite accepted regardless of cost.
    Greedy,
}

/// The whole-query fusion setting of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fuse {
    Off,
    /// Fusion kept only when the cost model agrees.
    CostGated,
    /// Every extractable chain fused, so the fused executor always runs.
    Forced,
}

/// One configuration of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    format: StoreFormat,
    views: Views,
    fuse: Fuse,
}

impl Cell {
    fn all() -> Vec<Cell> {
        let mut cells = Vec::new();
        for format in [StoreFormat::V1, StoreFormat::V2] {
            for views in [Views::Off, Views::CostGated, Views::Greedy] {
                for fuse in [Fuse::Off, Fuse::CostGated, Fuse::Forced] {
                    cells.push(Cell {
                        format,
                        views,
                        fuse,
                    });
                }
            }
        }
        cells
    }

    /// A fresh engine over `xml`, configured for this cell.
    fn engine(self, xml: &str) -> Engine {
        let mut engine = engine_with_format(xml, self.format);
        let options = engine.options_mut();
        options.views = self.views != Views::Off;
        options.view_admit_after = 1;
        options.view_greedy = self.views == Views::Greedy;
        options.fuse = self.fuse != Fuse::Off;
        options.fuse_force = self.fuse == Fuse::Forced;
        engine
    }

    /// Runs per query: cold, warm and hot with views on, else one.
    fn runs(self) -> usize {
        if self.views == Views::Off {
            1
        } else {
            3
        }
    }
}

fn engine_with_format(xml: &str, format: StoreFormat) -> Engine {
    let mut store = MassStore::open_memory();
    store.set_format(format).expect("fresh store");
    store.load_xml("auction.xml", xml).expect("load");
    Engine::new(store)
}

fn identities(engine: &Engine, result: &[NodeEntry]) -> Vec<NodeIdentity> {
    let names = engine.names_of(result).expect("names");
    let values = engine.string_values(result).expect("values");
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| NodeIdentity { name, value })
        .collect()
}

#[test]
fn every_cell_matches_the_plain_engine_and_the_dom_oracle() {
    let xml = vamana_bench::document(0.4);
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    let plain = engine_with_format(&xml, StoreFormat::V1);
    let expected: Vec<(&str, &str, Vec<NodeEntry>, Vec<NodeIdentity>)> = all_queries()
        .map(|(name, xpath)| {
            let oracle = dom.identities(xpath).unwrap();
            assert!(!oracle.is_empty(), "{name}: oracle returned nothing");
            let reference = plain.query_doc(DOC, xpath).unwrap();
            (name, xpath, reference, oracle)
        })
        .collect();
    for cell in Cell::all() {
        let engine = cell.engine(&xml);
        if cell.format == StoreFormat::V2 {
            assert!(
                engine.store().stats().compressed_pages > 0,
                "{cell:?}: v2 engine must actually run on compressed pages"
            );
        }
        for (name, xpath, reference, oracle) in &expected {
            for run in 0..cell.runs() {
                let got = engine.query_doc(DOC, xpath).unwrap();
                assert_eq!(&got, reference, "{name} run {run} {cell:?}: != plain v1");
                assert_eq!(
                    &identities(&engine, &got),
                    oracle,
                    "{name} run {run} {cell:?}: disagrees with DOM oracle"
                );
            }
        }
        // The stages under test must actually engage, not pass vacuously.
        if cell.views != Views::Off {
            let stats = engine.views().stats();
            assert!(
                stats.views >= 1,
                "{cell:?}: no view materialized: {stats:?}"
            );
            assert!(
                stats.hits >= 1,
                "{cell:?}: no query view-answered: {stats:?}"
            );
        }
        if cell.fuse == Fuse::Forced && cell.views == Views::Off {
            // The scan queries are all multi-step forward chains.
            let (chains, steps) = engine.fused_stats();
            assert!(chains >= 4, "{cell:?}: only {chains} fused chains ran");
            assert!(steps > chains, "{cell:?}: fused chains collapsed no steps");
        }
    }
}

/// Drains a fresh stream of `xpath`, taking each pull's shape from
/// `pulls` in turn: `0` is one `QueryStream::next`, any other value `n`
/// one `next_batch(n)`.
fn drain_stream(engine: &Engine, xpath: &str, pulls: &[usize]) -> Vec<NodeEntry> {
    let mut stream = engine.stream(DOC, xpath).unwrap();
    let mut out = Vec::new();
    for &pull in pulls.iter().cycle() {
        let got = match pull {
            0 => match stream.next().unwrap() {
                Some(t) => {
                    out.push(t);
                    true
                }
                None => false,
            },
            n => stream.next_batch(&mut out, n).unwrap() > 0,
        };
        if !got {
            return out;
        }
    }
    unreachable!("`pulls` is never empty")
}

/// Raw pipeline tuple sequences (before duplicate elimination) do not
/// depend on how the consumer pulls, on both page formats: one tuple at
/// a time, single-tuple batches, full batches, and all three
/// interleaved on one stream must yield the same order — no operator
/// may reorder, drop or repeat a tuple at a pull boundary.
#[test]
fn stream_order_is_independent_of_pull_size() {
    let xml = vamana_bench::document(0.4);
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let engine = engine_with_format(&xml, format);
        for (name, xpath) in all_queries() {
            let full = drain_stream(&engine, xpath, &[BATCH_SIZE]);
            assert!(!full.is_empty(), "{name}: stream returned nothing");
            for pulls in [&[0][..], &[1], &[0, 1, BATCH_SIZE, 1, 0, 7]] {
                assert_eq!(
                    drain_stream(&engine, xpath, pulls),
                    full,
                    "{name} ({format:?}) pulls {pulls:?}: tuple order differs"
                );
            }
        }
    }
}

/// Value-returning evaluation (counts, string functions) goes through
/// `resolve_value` and therefore the dictionary on v2 — both formats
/// must agree on full `evaluate` output too.
#[test]
fn v2_evaluate_matches_v1() {
    let xml = vamana_bench::document(0.2);
    let v1 = engine_with_format(&xml, StoreFormat::V1);
    let v2 = engine_with_format(&xml, StoreFormat::V2);
    for xpath in [
        "count(//person)",
        "count(//item)",
        "string(//person[1]/name)",
        "//province[text()='Vermont']",
        "count(//incategory)",
    ] {
        let a = format!("{:?}", v1.evaluate(DOC, xpath).unwrap());
        let b = format!("{:?}", v2.evaluate(DOC, xpath).unwrap());
        assert_eq!(a, b, "{xpath}: v2 evaluate != v1");
    }
}

/// Compensation correctness: materialize deliberately general views,
/// then answer tighter queries through them (greedy acceptance forces
/// the rewrite even when the cost model would keep the index plan) and
/// compare against the DOM oracle.
#[test]
fn compensated_rewrites_agree_with_oracle() {
    let xml = vamana_bench::document(0.4);
    let dom = vamana_baseline::dom::DomEngine::from_xml(&xml).unwrap();
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let subject = Cell {
            format,
            views: Views::Greedy,
            fuse: Fuse::Off,
        }
        .engine(&xml);
        for view in ["//person", "//item", "//person/address"] {
            subject.query_doc(DOC, view).unwrap(); // materialize
        }
        for (name, xpath) in [
            ("specialized pred", "//person[address]"),
            ("specialized nested pred", "//person[address/province]"),
            ("exact view", "//person/address"),
            ("item pred", "//item[mailbox]"),
        ] {
            let oracle = dom.identities(xpath).unwrap();
            let result = subject.query_doc(DOC, xpath).unwrap();
            assert_eq!(
                identities(&subject, &result),
                oracle,
                "{name} ({format:?}): rewrite disagrees with oracle"
            );
        }
        let stats = subject.views().stats();
        assert!(
            stats.hits >= 1,
            "{format:?}: no rewrite was applied: {stats:?}"
        );
    }
}
