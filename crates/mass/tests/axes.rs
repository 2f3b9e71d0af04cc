//! Exhaustive tests of all 13 XPath axes evaluated through MASS,
//! cross-checked against an independent DOM-based oracle.

use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, KindFilter, NodeFilter};
use vamana_mass::{MassStore, RecordKind};

const DOC: &str = r#"<site xmlns:x="urn:x">
  <people>
    <person id="p0"><name>Ann</name><emailaddress>a@x</emailaddress>
      <address><city>Monroe</city><province>Vermont</province></address>
    </person>
    <person id="p1"><name>Bob</name>
      <watches><watch open_auction="oa1"/><watch open_auction="oa2"/></watches>
    </person>
  </people>
  <open_auctions>
    <open_auction id="oa1"><itemref item="i0"/><price>12</price></open_auction>
  </open_auctions>
</site>"#;

struct Fixture {
    store: MassStore,
}

impl Fixture {
    fn new() -> Self {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        Fixture { store }
    }

    /// Key of the `i`-th element named `name` (document order).
    fn elem(&self, name: &str, i: usize) -> FlexKey {
        let id = self
            .store
            .name_id(name)
            .unwrap_or_else(|| panic!("no name {name}"));
        let flat = self
            .store
            .name_index()
            .elements(id)
            .iter()
            .nth(i)
            .unwrap_or_else(|| panic!("no element {name}[{i}]"));
        FlexKey::from_flat(flat.to_vec())
    }

    /// Names of the elements reached by `axis` from `ctx` with test `*`.
    fn run_star(&self, ctx: &FlexKey, axis: Axis) -> Vec<String> {
        let stream = axis_stream(
            &self.store,
            ctx,
            RecordKind::Element,
            axis,
            NodeFilter::any_element(),
        )
        .unwrap();
        stream
            .collect()
            .unwrap()
            .into_iter()
            .map(|e| self.store.names().resolve(e.name.unwrap()).to_string())
            .collect()
    }

    /// Names reached with a name test.
    fn run_named(&self, ctx: &FlexKey, axis: Axis, name: &str) -> usize {
        let Some(id) = self.store.name_id(name) else {
            return 0;
        };
        let stream = axis_stream(
            &self.store,
            ctx,
            RecordKind::Element,
            axis,
            NodeFilter::element(id),
        )
        .unwrap();
        stream.collect().unwrap().len()
    }
}

#[test]
fn child_axis_elements_only() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(
        f.run_star(&site, Axis::Child),
        vec!["people", "open_auctions"]
    );
    let person0 = f.elem("person", 0);
    assert_eq!(
        f.run_star(&person0, Axis::Child),
        vec!["name", "emailaddress", "address"]
    );
}

#[test]
fn child_axis_excludes_attributes() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Child,
        NodeFilter::any(),
    )
    .unwrap();
    for e in stream.collect().unwrap() {
        assert_ne!(e.kind, RecordKind::Attribute);
    }
}

#[test]
fn descendant_axis_counts() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(f.run_named(&site, Axis::Descendant, "person"), 2);
    assert_eq!(f.run_named(&site, Axis::Descendant, "watch"), 2);
    assert_eq!(f.run_named(&site, Axis::Descendant, "site"), 0); // strict
    let people = f.elem("people", 0);
    assert_eq!(f.run_named(&people, Axis::Descendant, "price"), 0); // other subtree
}

#[test]
fn descendant_or_self_includes_context() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(f.run_named(&site, Axis::DescendantOrSelf, "site"), 1);
    assert_eq!(f.run_named(&site, Axis::DescendantOrSelf, "person"), 2);
}

#[test]
fn parent_axis() {
    let f = Fixture::new();
    let name0 = f.elem("name", 0);
    assert_eq!(f.run_star(&name0, Axis::Parent), vec!["person"]);
    assert_eq!(f.run_named(&name0, Axis::Parent, "person"), 1);
    assert_eq!(f.run_named(&name0, Axis::Parent, "site"), 0);
    // Parent of the root element is the document node — not an element.
    let site = f.elem("site", 0);
    assert_eq!(f.run_star(&site, Axis::Parent), Vec::<String>::new());
}

#[test]
fn ancestor_axis_outermost_first() {
    let f = Fixture::new();
    let city = f.elem("city", 0);
    assert_eq!(
        f.run_star(&city, Axis::Ancestor),
        vec!["site", "people", "person", "address"]
    );
    assert_eq!(
        f.run_star(&city, Axis::AncestorOrSelf),
        vec!["site", "people", "person", "address", "city"]
    );
}

#[test]
fn following_axis_skips_descendants_and_ancestors() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let following = f.run_star(&person0, Axis::Following);
    // person1's subtree plus open_auctions subtree; nothing from person0.
    assert!(following.contains(&"person".to_string()));
    assert!(following.contains(&"open_auction".to_string()));
    assert!(!following.contains(&"city".to_string())); // own descendant
    assert!(!following.contains(&"people".to_string())); // ancestor
    assert!(!following.contains(&"site".to_string()));
}

#[test]
fn preceding_axis_excludes_ancestors() {
    let f = Fixture::new();
    let price = f.elem("price", 0);
    let preceding = f.run_star(&price, Axis::Preceding);
    assert!(preceding.contains(&"person".to_string()));
    assert!(preceding.contains(&"itemref".to_string())); // earlier sibling
    assert!(!preceding.contains(&"open_auction".to_string())); // ancestor
    assert!(!preceding.contains(&"site".to_string())); // ancestor
    assert!(!preceding.contains(&"open_auctions".to_string())); // ancestor
}

#[test]
fn sibling_axes() {
    let f = Fixture::new();
    let email = f.elem("emailaddress", 0);
    assert_eq!(f.run_star(&email, Axis::FollowingSibling), vec!["address"]);
    assert_eq!(f.run_star(&email, Axis::PrecedingSibling), vec!["name"]);
    let itemref = f.elem("itemref", 0);
    assert_eq!(f.run_star(&itemref, Axis::FollowingSibling), vec!["price"]);
    // First child has no preceding siblings.
    let name0 = f.elem("name", 0);
    assert_eq!(
        f.run_star(&name0, Axis::PrecedingSibling),
        Vec::<String>::new()
    );
}

#[test]
fn self_axis_respects_node_test() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    assert_eq!(f.run_named(&person0, Axis::SelfAxis, "person"), 1);
    assert_eq!(f.run_named(&person0, Axis::SelfAxis, "name"), 0);
}

#[test]
fn attribute_axis() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let id = f.store.name_id("id").unwrap();
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter::attribute(id),
    )
    .unwrap();
    let attrs = stream.collect().unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].kind, RecordKind::Attribute);
    let rec = f.store.get(&attrs[0].key).unwrap().unwrap();
    assert_eq!(f.store.resolve_value(&rec).unwrap().unwrap(), "p0");
    // Watch has two attributes named open_auction? One each.
    let watch0 = f.elem("watch", 0);
    let oa = f.store.name_id("open_auction").unwrap();
    let stream = axis_stream(
        &f.store,
        &watch0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter::attribute(oa),
    )
    .unwrap();
    assert_eq!(stream.collect().unwrap().len(), 1);
}

#[test]
fn attribute_context_has_no_children_or_siblings() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter {
            kind: vamana_mass::KindFilter::Attribute,
            name: None,
        },
    )
    .unwrap();
    let attr = stream.collect().unwrap().into_iter().next().unwrap();
    for axis in [
        Axis::Child,
        Axis::Descendant,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Attribute,
    ] {
        let s = axis_stream(
            &f.store,
            &attr.key,
            RecordKind::Attribute,
            axis,
            NodeFilter::any(),
        )
        .unwrap();
        assert!(
            s.collect().unwrap().is_empty(),
            "axis {axis} should be empty for attributes"
        );
    }
    // But parent works.
    let s = axis_stream(
        &f.store,
        &attr.key,
        RecordKind::Attribute,
        Axis::Parent,
        NodeFilter::any_element(),
    )
    .unwrap();
    assert_eq!(s.collect().unwrap().len(), 1);
}

#[test]
fn namespace_axis_synthesizes_in_scope_declarations() {
    let f = Fixture::new();
    let city = f.elem("city", 0);
    let stream = axis_stream(
        &f.store,
        &city,
        RecordKind::Element,
        Axis::Namespace,
        NodeFilter {
            kind: vamana_mass::KindFilter::Attribute,
            name: None,
        },
    )
    .unwrap();
    let ns = stream.collect().unwrap();
    assert_eq!(ns.len(), 1);
    assert_eq!(f.store.names().resolve(ns[0].name.unwrap()), "xmlns:x");
}

#[test]
fn text_node_test_on_child_axis() {
    let f = Fixture::new();
    let name0 = f.elem("name", 0);
    let stream = axis_stream(
        &f.store,
        &name0,
        RecordKind::Element,
        Axis::Child,
        NodeFilter::text(),
    )
    .unwrap();
    let texts = stream.collect().unwrap();
    assert_eq!(texts.len(), 1);
    let rec = f.store.get(&texts[0].key).unwrap().unwrap();
    assert_eq!(f.store.resolve_value(&rec).unwrap().unwrap(), "Ann");
}

#[test]
fn streams_yield_document_order() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    for axis in [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
    ] {
        let stream = axis_stream(
            &f.store,
            &site,
            RecordKind::Element,
            axis,
            NodeFilter::any(),
        )
        .unwrap();
        let keys: Vec<_> = stream
            .collect()
            .unwrap()
            .into_iter()
            .map(|e| e.key)
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "axis {axis} out of order");
        }
    }
}

#[test]
fn counts_match_stream_lengths() {
    // The cost model's COUNT must agree with what execution produces.
    let f = Fixture::new();
    let site = f.elem("site", 0);
    for name in ["person", "name", "watch", "price", "province"] {
        let id = f.store.name_id(name).unwrap();
        let counted = f.store.count_elements_in(id, &KeyRange::descendants(&site));
        let streamed = f.run_named(&site, Axis::Descendant, name) as u64;
        assert_eq!(counted, streamed, "mismatch for {name}");
    }
}

#[test]
fn every_axis_runs_from_every_element() {
    // Smoke test: no axis panics or violates document order anywhere.
    let f = Fixture::new();
    let all_elems: Vec<FlexKey> = {
        let mut keys = Vec::new();
        for name in [
            "site",
            "people",
            "person",
            "name",
            "address",
            "city",
            "province",
            "watches",
            "watch",
            "open_auctions",
            "open_auction",
            "itemref",
            "price",
            "emailaddress",
        ] {
            if let Some(id) = f.store.name_id(name) {
                for flat in f.store.name_index().elements(id).iter() {
                    keys.push(FlexKey::from_flat(flat.to_vec()));
                }
            }
        }
        keys
    };
    assert!(all_elems.len() >= 15);
    for key in &all_elems {
        for axis in Axis::ALL {
            let stream =
                axis_stream(&f.store, key, RecordKind::Element, axis, NodeFilter::any()).unwrap();
            let entries = stream.collect().unwrap();
            for w in entries.windows(2) {
                assert!(w[0].key < w[1].key, "axis {axis} out of order from {key}");
            }
        }
    }
}

// ---- batched evaluation vs a brute-force reference --------------------

/// Drains `stream` through `next_batch` pulls of `max` entries each.
fn drain_batched(
    mut stream: vamana_mass::axes::AxisStream<'_>,
    max: usize,
) -> Vec<vamana_mass::NodeEntry> {
    let mut out = Vec::new();
    while stream.next_batch(&mut out, max).unwrap() > 0 {}
    out
}

/// Every stored record, in document order, from a full clustered scan.
fn all_records(store: &MassStore) -> Vec<vamana_mass::NodeRecord> {
    let mut cursor = vamana_mass::cursor::MassCursor::new(store, KeyRange::all());
    let mut records = Vec::new();
    while let Some(rec) = cursor.next().unwrap() {
        records.push(rec);
    }
    records
}

/// Brute-force reference for [`axis_stream`] from an element context:
/// every stored record kept by the axis's FLEX key relation to `ctx`
/// and by the node test, in document order. It shares no code with the
/// axis implementations beyond the key predicates themselves.
fn reference_axis(
    store: &MassStore,
    records: &[vamana_mass::NodeRecord],
    ctx: &FlexKey,
    axis: Axis,
    filter: NodeFilter,
) -> Vec<vamana_mass::NodeEntry> {
    let is_attr = |rec: &vamana_mass::NodeRecord| rec.kind == RecordKind::Attribute;
    // Attributes sit on no axis but `attribute` (and, for the context
    // itself, `self`) — unless the node test explicitly asks for them.
    let hidden =
        |rec: &vamana_mass::NodeRecord| is_attr(rec) && filter.kind != KindFilter::Attribute;
    let same_doc = |k: &FlexKey| k.labels().next() == ctx.labels().next();
    // Namespace nodes: the nearest in-scope `xmlns`/`xmlns:*` attribute
    // per name, walking from the context outwards.
    let mut ns_names = Vec::new();
    let mut ns_keys = Vec::new();
    let mut cur = Some(ctx.clone());
    while let Some(anc) = cur.filter(|k| !k.is_root()) {
        for rec in records
            .iter()
            .filter(|r| is_attr(r) && anc.is_parent_of(&r.key))
        {
            let name = store.names().resolve(rec.name.unwrap());
            if (name == "xmlns" || name.starts_with("xmlns:")) && !ns_names.contains(&name) {
                ns_names.push(name);
                ns_keys.push(rec.key.clone());
            }
        }
        cur = anc.parent();
    }
    // A name or `*` test on the attribute and namespace axes selects
    // their principal node kind, attributes.
    let filter = match (axis, filter.kind) {
        (Axis::Attribute | Axis::Namespace, KindFilter::Element | KindFilter::Any) => NodeFilter {
            kind: KindFilter::Attribute,
            name: filter.name,
        },
        _ => filter,
    };
    records
        .iter()
        .filter(|rec| {
            let k = &rec.key;
            let on_axis = match axis {
                Axis::SelfAxis => k == ctx,
                Axis::Child => ctx.is_parent_of(k) && !hidden(rec),
                Axis::Descendant => ctx.is_ancestor_of(k) && !hidden(rec),
                Axis::DescendantOrSelf => k == ctx || (ctx.is_ancestor_of(k) && !hidden(rec)),
                Axis::Parent => k.is_parent_of(ctx),
                Axis::Ancestor => k.is_ancestor_of(ctx),
                Axis::AncestorOrSelf => k.is_ancestor_or_self_of(ctx),
                Axis::FollowingSibling => k.is_sibling_of(ctx) && k > ctx && !hidden(rec),
                Axis::PrecedingSibling => k.is_sibling_of(ctx) && k < ctx && !hidden(rec),
                Axis::Following => k > ctx && !ctx.is_ancestor_of(k) && same_doc(k) && !hidden(rec),
                Axis::Preceding => k < ctx && !k.is_ancestor_of(ctx) && same_doc(k) && !hidden(rec),
                Axis::Attribute => ctx.is_parent_of(k) && is_attr(rec),
                Axis::Namespace => ns_keys.contains(k),
            };
            on_axis && filter.matches(rec)
        })
        .map(vamana_mass::NodeEntry::from_record)
        .collect()
}

#[test]
fn batched_streams_match_brute_force_on_every_axis() {
    // Every pull size, including ones that force mid-page and
    // mid-stream boundaries, must drain to exactly the reference, for
    // every axis from every element under every node test.
    let f = Fixture::new();
    let records = all_records(&f.store);
    let ctxs: Vec<FlexKey> = records
        .iter()
        .filter(|r| r.kind == RecordKind::Element)
        .map(|r| r.key.clone())
        .collect();
    assert!(ctxs.len() >= 15);
    let filters = [
        NodeFilter::any(),
        NodeFilter::any_element(),
        NodeFilter::text(),
        NodeFilter::element(f.store.name_id("person").unwrap()),
        NodeFilter::attribute(f.store.name_id("id").unwrap()),
    ];
    let mut nonempty = 0;
    for ctx in &ctxs {
        for axis in Axis::ALL {
            for filter in filters {
                let reference = reference_axis(&f.store, &records, ctx, axis, filter);
                nonempty += usize::from(!reference.is_empty());
                for max in [1, 2, 3, 1024] {
                    let stream =
                        axis_stream(&f.store, ctx, RecordKind::Element, axis, filter).unwrap();
                    assert_eq!(
                        drain_batched(stream, max),
                        reference,
                        "axis {axis} filter {filter:?} max {max} from {ctx}"
                    );
                }
            }
        }
    }
    assert!(nonempty > 100, "reference must not be vacuous: {nonempty}");
}

#[test]
fn cursor_batch_on_empty_store_and_empty_range() {
    use vamana_mass::cursor::MassCursor;
    // Empty store: no pages at all.
    let empty = MassStore::open_memory();
    let mut cur = MassCursor::new(&empty, KeyRange::all());
    let mut out = Vec::new();
    assert_eq!(cur.next_batch(&mut out, 256).unwrap(), 0);
    assert_eq!(cur.next_batch(&mut out, 256).unwrap(), 0, "stays exhausted");
    // Populated store, but a range past every stored key.
    let f = Fixture::new();
    let last = f.elem("open_auction", 0);
    let range = KeyRange {
        lo: last.subtree_upper().unwrap(),
        hi: None,
    };
    let mut cur = MassCursor::new(&f.store, range);
    let n = cur.next_batch(&mut out, 256).unwrap();
    // Nothing below the document level follows the last auction subtree.
    assert!(
        out.iter().all(|e| !last.is_ancestor_of(&e.key)),
        "range must exclude the subtree"
    );
    let _ = n;
}

#[test]
fn batched_scan_crosses_pages_emptied_by_deletes() {
    // Build a store large enough for several pages, carve a hole in the
    // middle with a subtree delete, and check the batched scan agrees
    // with the brute-force reference across the gap.
    let mut xml = String::from("<r>");
    for part in 0..3 {
        xml.push_str(&format!("<part id='g{part}'>"));
        for i in 0..800 {
            xml.push_str(&format!("<e>{part}-{i}</e>"));
        }
        xml.push_str("</part>");
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &xml).unwrap();
    assert!(
        store.stats().pages > 3,
        "fixture must span multiple pages, got {}",
        store.stats().pages
    );
    let part1 = {
        let id = store.name_id("part").unwrap();
        let flat = store.name_index().elements(id).iter().nth(1).unwrap();
        FlexKey::from_flat(flat.to_vec())
    };
    let deleted = store.delete_subtree(&part1).unwrap();
    assert!(deleted > 800, "subtree delete must remove the middle part");
    let root = {
        let id = store.name_id("r").unwrap();
        let flat = store.name_index().elements(id).iter().next().unwrap();
        FlexKey::from_flat(flat.to_vec())
    };
    let records = all_records(&store);
    let reference = reference_axis(&store, &records, &root, Axis::Descendant, NodeFilter::any());
    assert!(reference.len() > 1600, "both surviving parts are scanned");
    for max in [7, 256] {
        let stream = axis_stream(
            &store,
            &root,
            RecordKind::Element,
            Axis::Descendant,
            NodeFilter::any(),
        )
        .unwrap();
        assert_eq!(drain_batched(stream, max), reference, "max {max}");
    }
}

#[test]
fn batch_counters_account_for_amortized_pins() {
    let mut xml = String::from("<r>");
    for i in 0..2000 {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &xml).unwrap();
    store.buffer_pool().reset_stats();
    let root = {
        let id = store.name_id("r").unwrap();
        let flat = store.name_index().elements(id).iter().next().unwrap();
        FlexKey::from_flat(flat.to_vec())
    };
    let stream = axis_stream(
        &store,
        &root,
        RecordKind::Element,
        Axis::Descendant,
        NodeFilter::any(),
    )
    .unwrap();
    let entries = drain_batched(stream, 256);
    let stats = store.buffer_pool().stats();
    assert!(!entries.is_empty());
    assert!(stats.batch_pins > 0, "batched scan must record its pins");
    assert!(
        stats.pins_saved >= entries.len() as u64 - stats.batch_pins,
        "pins_saved {} too small for {} entries over {} batch pins",
        stats.pins_saved,
        entries.len(),
        stats.batch_pins
    );
    // Every batch saves exactly (scanned - 1) pins, so the two counters
    // together equal the number of records examined.
    let scanned = stats.batch_pins + stats.pins_saved;
    assert!(
        scanned >= entries.len() as u64,
        "scanned {scanned} < produced {}",
        entries.len()
    );
}
