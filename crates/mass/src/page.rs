//! Slotted pages of the clustered MASS index.
//!
//! Records are clustered in document order (FLEX-key order). A page is
//! decoded into a `Vec<NodeRecord>` when it enters the buffer pool and
//! re-encoded on write-out. Two on-disk images exist, self-described by
//! the header magic:
//!
//! * **v1** (`"MA"`): records back to back in their fixed-field encoding;
//! * **v2** (`"MC"`): records front-coded against their on-page
//!   predecessor with varint fields (see [`crate::compress`]).
//!
//! Both share the `[magic u16][count u16][reserved u32]` header. A page
//! carries its format through decode/encode, so a store may hold a mix;
//! size accounting (`encoded_size`, `fits_*`) is exact per format, which
//! is what lets v2 pages pack several× more records into `PAGE_SIZE`.

use crate::compress::{v2_decode_record, v2_encode_record, v2_record_len, StoreFormat};
use crate::error::{MassError, Result};
use crate::record::NodeRecord;

/// Fixed page size in bytes, disk image and capacity accounting.
pub const PAGE_SIZE: usize = 8192;
/// Bytes reserved for the page header.
pub const PAGE_HEADER: usize = 8;
/// Payload capacity of one page.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER;

const MAGIC: u16 = 0x4D41; // "MA"
const MAGIC_V2: u16 = 0x4D43; // "MC"

/// A decoded page: records sorted by key.
#[derive(Debug, Clone, Default)]
pub struct Page {
    records: Vec<NodeRecord>,
    encoded: usize,
    format: StoreFormat,
}

impl Page {
    /// An empty v1 page.
    pub fn new() -> Self {
        Page::default()
    }

    /// An empty page in `format`.
    pub fn new_with_format(format: StoreFormat) -> Self {
        Page {
            format,
            ..Page::default()
        }
    }

    /// The format this page encodes to.
    pub fn format(&self) -> StoreFormat {
        self.format
    }

    /// The records, in key order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// Number of records on the page.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the page holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Payload bytes currently used. Exact for both formats; may
    /// transiently exceed [`PAGE_CAPACITY`] after a [`Page::remove`] on a
    /// v2 page (removing a record can lengthen its successor's
    /// front-coding) — callers split before writing out.
    pub fn encoded_size(&self) -> usize {
        self.encoded
    }

    /// True if a record of `len` encoded bytes still fits. V1 accounting;
    /// prefer [`Page::fits_record`], which is format-exact.
    pub fn fits(&self, len: usize) -> bool {
        self.encoded + len <= PAGE_CAPACITY
    }

    /// True when the page payload exceeds capacity (possible only after
    /// v2 removals); such a page must be split before write-out.
    pub fn overflowed(&self) -> bool {
        self.encoded > PAGE_CAPACITY
    }

    /// Cost of `rec` encoded after the record at `prev_idx` (None = first).
    fn cost_after(&self, rec: &NodeRecord, prev_idx: Option<usize>) -> usize {
        match self.format {
            StoreFormat::V1 => rec.encoded_len(),
            StoreFormat::V2 => {
                let prev = prev_idx.map(|i| self.records[i].key.as_flat());
                v2_record_len(rec, prev)
            }
        }
    }

    /// Exact payload delta of inserting `rec` at its sorted position.
    /// Positive unless the insert is rejected; accounts for the successor
    /// re-coding on v2 pages.
    fn insert_delta(&self, rec: &NodeRecord, pos: usize) -> usize {
        let prev_idx = pos.checked_sub(1);
        let own = self.cost_after(rec, prev_idx);
        match self.format {
            StoreFormat::V1 => own,
            StoreFormat::V2 => {
                let succ = match self.records.get(pos) {
                    Some(next) => {
                        let new_cost = v2_record_len(next, Some(rec.key.as_flat()));
                        let old_cost = self.cost_after(next, prev_idx);
                        new_cost as isize - old_cost as isize
                    }
                    None => 0,
                };
                (own as isize + succ).max(0) as usize
            }
        }
    }

    /// True if `rec` still fits at its sorted position — exact for the
    /// page's format (v2 front-coding makes a record's size depend on its
    /// neighbors, so a flat `encoded_len` check would over-reject).
    pub fn fits_record(&self, rec: &NodeRecord) -> bool {
        let pos = match self.find(rec.key.as_flat()) {
            Ok(_) => return true, // duplicate: insert will reject anyway
            Err(p) => p,
        };
        self.encoded + self.insert_delta(rec, pos) <= PAGE_CAPACITY
    }

    /// Fails with [`MassError::RecordTooLarge`] when `rec` would not fit
    /// even an empty page of this page's format. Only a FLEX key too
    /// long to store (a document nested too deep) causes that; any other
    /// record fits once its page is split.
    pub fn check_fits_alone(&self, rec: &NodeRecord) -> Result<()> {
        let alone = self.cost_after(rec, None);
        if alone > PAGE_CAPACITY {
            return Err(MassError::RecordTooLarge {
                key_len: rec.key.as_flat().len(),
                record_len: alone,
                capacity: PAGE_CAPACITY,
            });
        }
        Ok(())
    }

    /// First key on the page (flat encoding).
    pub fn first_key(&self) -> Option<&[u8]> {
        self.records.first().map(|r| r.key.as_flat())
    }

    /// Last key on the page (flat encoding).
    pub fn last_key(&self) -> Option<&[u8]> {
        self.records.last().map(|r| r.key.as_flat())
    }

    /// Binary search for `flat`: `Ok(i)` if present at `i`, `Err(i)` for
    /// the insertion point.
    pub fn find(&self, flat: &[u8]) -> std::result::Result<usize, usize> {
        self.records.binary_search_by(|r| r.key.as_flat().cmp(flat))
    }

    /// Appends a record that must sort after the current last record
    /// (bulk-load path).
    ///
    /// # Panics
    /// Panics (debug) if order would be violated; returns an error if the
    /// record does not fit.
    pub fn append(&mut self, rec: NodeRecord) -> Result<()> {
        let len = self.cost_after(&rec, self.records.len().checked_sub(1));
        if self.encoded + len > PAGE_CAPACITY {
            self.check_fits_alone(&rec)?;
            return Err(MassError::InvalidUpdate("page full".into()));
        }
        debug_assert!(
            self.last_key().is_none_or(|k| k < rec.key.as_flat()),
            "append out of order"
        );
        self.encoded += len;
        self.records.push(rec);
        Ok(())
    }

    /// Inserts a record at its sorted position (update path). Like
    /// [`Page::remove`], this may push the payload past capacity — check
    /// [`Page::overflowed`] and split before write-out.
    pub fn insert(&mut self, rec: NodeRecord) -> Result<()> {
        match self.find(rec.key.as_flat()) {
            Ok(_) => Err(MassError::InvalidUpdate("duplicate key".into())),
            Err(pos) => {
                self.encoded += self.insert_delta(&rec, pos);
                self.records.insert(pos, rec);
                Ok(())
            }
        }
    }

    /// Removes the record at `idx`, returning it. On v2 pages the
    /// successor's front-coding can lengthen, so `encoded_size` may grow
    /// past capacity — check [`Page::overflowed`] before write-out.
    pub fn remove(&mut self, idx: usize) -> NodeRecord {
        let prev_idx = idx.checked_sub(1);
        let own = self.cost_after(&self.records[idx], prev_idx) as isize;
        let succ = match self.format {
            StoreFormat::V1 => 0,
            StoreFormat::V2 => match self.records.get(idx + 1) {
                Some(next) => {
                    let old_cost = v2_record_len(next, Some(self.records[idx].key.as_flat()));
                    let new_cost = self.cost_after(next, prev_idx);
                    new_cost as isize - old_cost as isize
                }
                None => 0,
            },
        };
        let rec = self.records.remove(idx);
        self.encoded = (self.encoded as isize - own + succ).max(0) as usize;
        rec
    }

    /// Recomputes `encoded` from scratch (after bulk record surgery).
    fn recompute(&mut self) {
        self.encoded = match self.format {
            StoreFormat::V1 => self.records.iter().map(NodeRecord::encoded_len).sum(),
            StoreFormat::V2 => {
                let mut prev: Option<&[u8]> = None;
                let mut total = 0;
                for r in &self.records {
                    total += v2_record_len(r, prev);
                    prev = Some(r.key.as_flat());
                }
                total
            }
        };
    }

    /// Splits the page in half (by payload bytes), returning the upper
    /// half as a new page in the same format.
    pub fn split(&mut self) -> Page {
        let target = self.encoded / 2;
        let mut acc = 0usize;
        // When a large last record keeps the running total below the
        // target, the last record alone makes the upper half — so any
        // page of two or more records splits into two non-empty halves.
        let mut cut = self.records.len().saturating_sub(1).max(1);
        for (i, r) in self.records.iter().enumerate() {
            acc += self.cost_after(r, i.checked_sub(1));
            if acc >= target && i + 1 < self.records.len() {
                cut = i + 1;
                break;
            }
        }
        let upper_records: Vec<NodeRecord> = self.records.split_off(cut);
        let mut upper = Page {
            records: upper_records,
            encoded: 0,
            format: self.format,
        };
        // Both halves recompute: the upper half's first record loses its
        // predecessor (v2), and the lower half simply shrank.
        self.recompute();
        upper.recompute();
        upper
    }

    fn encode_body(&self, format: StoreFormat, out: &mut Vec<u8>) {
        match format {
            StoreFormat::V1 => {
                for r in &self.records {
                    r.encode(out);
                }
            }
            StoreFormat::V2 => {
                let mut prev: Option<&[u8]> = None;
                for r in &self.records {
                    v2_encode_record(r, prev, out);
                    prev = Some(r.key.as_flat());
                }
            }
        }
    }

    /// Encodes the page into a `PAGE_SIZE` disk image, reporting the
    /// format actually written. A v2 page whose front-coded body would
    /// not fit (pathological keys) falls back to the uncompressed image
    /// when that one fits — the "overflow page" rule.
    pub fn encode_with_format(&self) -> Result<(Vec<u8>, StoreFormat)> {
        for format in [self.format, StoreFormat::V1] {
            let magic = match format {
                StoreFormat::V1 => MAGIC,
                StoreFormat::V2 => MAGIC_V2,
            };
            let mut out = Vec::with_capacity(PAGE_SIZE);
            out.extend_from_slice(&magic.to_le_bytes());
            out.extend_from_slice(&(self.records.len() as u16).to_le_bytes());
            out.extend_from_slice(&[0u8; 4]);
            self.encode_body(format, &mut out);
            if out.len() <= PAGE_SIZE {
                out.resize(PAGE_SIZE, 0);
                return Ok((out, format));
            }
            if format == StoreFormat::V1 {
                break;
            }
        }
        Err(MassError::InvalidUpdate("page over capacity".into()))
    }

    /// Encodes the page into a `PAGE_SIZE` disk image.
    pub fn encode(&self) -> Result<Vec<u8>> {
        Ok(self.encode_with_format()?.0)
    }

    /// Decodes a disk image; the page remembers the image's format.
    pub fn decode(bytes: &[u8], page_id: u32) -> Result<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(MassError::CorruptPage {
                page: page_id,
                reason: format!("bad length {}", bytes.len()),
            });
        }
        let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
        let format = match magic {
            MAGIC => StoreFormat::V1,
            MAGIC_V2 => StoreFormat::V2,
            _ => {
                // An all-zero header is a page that was allocated (backends
                // zero-extend eagerly) but never written — e.g. a crash
                // between a split's allocation and its first write-out.
                // Decode it as empty so recovery can reclaim it.
                if bytes[..PAGE_HEADER].iter().all(|&b| b == 0) {
                    return Ok(Page::default());
                }
                return Err(MassError::CorruptPage {
                    page: page_id,
                    reason: "bad magic".into(),
                });
            }
        };
        let count = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
        let mut records: Vec<NodeRecord> = Vec::with_capacity(count);
        let mut at = PAGE_HEADER;
        let mut encoded = 0usize;
        for _ in 0..count {
            let (rec, used) = match format {
                StoreFormat::V1 => NodeRecord::decode(&bytes[at..]),
                StoreFormat::V2 => {
                    let prev = records.last().map(|r: &NodeRecord| r.key.as_flat());
                    v2_decode_record(&bytes[at..], prev)
                }
            }
            .map_err(|e| MassError::CorruptPage {
                page: page_id,
                reason: e.to_string(),
            })?;
            at += used;
            encoded += used;
            records.push(rec);
        }
        Ok(Page {
            records,
            encoded,
            format,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::NameId;
    use crate::record::ValueRef;
    use vamana_flex::{seq_label, FlexKey};

    fn rec(i: u64) -> NodeRecord {
        NodeRecord::element(FlexKey::root().child(&seq_label(i)), NameId(i as u32))
    }

    fn deep_rec(path: &[u64]) -> NodeRecord {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        NodeRecord::element(k, NameId(7))
    }

    #[test]
    fn append_and_encode_round_trip() {
        let mut p = Page::new();
        for i in 0..20 {
            p.append(rec(i)).unwrap();
        }
        let img = p.encode().unwrap();
        assert_eq!(img.len(), PAGE_SIZE);
        let back = Page::decode(&img, 0).unwrap();
        assert_eq!(back.len(), 20);
        assert_eq!(back.records(), p.records());
        assert_eq!(back.encoded_size(), p.encoded_size());
    }

    #[test]
    fn v2_round_trip_preserves_records_and_accounting() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = Page::new_with_format(fmt);
            for i in 0..40 {
                p.append(deep_rec(&[0, 1, 2, i])).unwrap();
            }
            let (img, written) = p.encode_with_format().unwrap();
            assert_eq!(written, fmt);
            let back = Page::decode(&img, 0).unwrap();
            assert_eq!(back.format(), fmt);
            assert_eq!(back.records(), p.records());
            assert_eq!(back.encoded_size(), p.encoded_size());
        }
    }

    #[test]
    fn v2_packs_more_records_than_v1() {
        let fill = |fmt| {
            let mut p = Page::new_with_format(fmt);
            let mut i = 0u64;
            loop {
                let r = deep_rec(&[0, 1, 2, 3, i]);
                if !p.fits_record(&r) {
                    break;
                }
                p.append(r).unwrap();
                i += 1;
            }
            p.len()
        };
        let v1 = fill(StoreFormat::V1);
        let v2 = fill(StoreFormat::V2);
        assert!(
            v2 as f64 >= v1 as f64 * 2.0,
            "v2 page holds {v2} records vs v1 {v1}; expected ≥ 2×"
        );
    }

    #[test]
    fn v2_insert_and_remove_keep_exact_accounting() {
        let mut p = Page::new_with_format(StoreFormat::V2);
        for i in (0..60).step_by(2) {
            p.append(deep_rec(&[0, 1, i])).unwrap();
        }
        p.insert(deep_rec(&[0, 1, 31])).unwrap();
        p.insert(deep_rec(&[0, 0])).unwrap(); // new first record
        p.remove(5);
        p.remove(0);
        let mut check = p.clone();
        check.recompute();
        assert_eq!(p.encoded_size(), check.encoded_size());
        // And the image round-trips.
        let back = Page::decode(&p.encode().unwrap(), 0).unwrap();
        assert_eq!(back.records(), p.records());
        assert_eq!(back.encoded_size(), p.encoded_size());
    }

    #[test]
    fn v2_split_recomputes_both_halves() {
        let mut p = Page::new_with_format(StoreFormat::V2);
        for i in 0..300 {
            p.append(deep_rec(&[0, 1, 2, i])).unwrap();
        }
        let upper = p.split();
        assert_eq!(upper.format(), StoreFormat::V2);
        let mut lo = p.clone();
        let mut hi = upper.clone();
        lo.recompute();
        hi.recompute();
        assert_eq!(p.encoded_size(), lo.encoded_size());
        assert_eq!(upper.encoded_size(), hi.encoded_size());
        assert!(p.last_key().unwrap() < upper.first_key().unwrap());
    }

    #[test]
    fn dict_values_round_trip_in_both_formats() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = Page::new_with_format(fmt);
            p.append(NodeRecord {
                key: FlexKey::root().child(&seq_label(0)),
                kind: crate::record::RecordKind::Text,
                name: None,
                value: ValueRef::Dict(12345),
            })
            .unwrap();
            let back = Page::decode(&p.encode().unwrap(), 0).unwrap();
            assert_eq!(back.records()[0].value, ValueRef::Dict(12345));
        }
    }

    #[test]
    fn find_locates_keys() {
        let mut p = Page::new();
        for i in (0..30).step_by(3) {
            p.append(rec(i)).unwrap();
        }
        assert_eq!(p.find(rec(6).key.as_flat()), Ok(2));
        // Missing key yields the insertion point.
        assert!(p.find(rec(7).key.as_flat()).is_err());
    }

    #[test]
    fn insert_keeps_order() {
        let mut p = Page::new();
        p.append(rec(0)).unwrap();
        p.append(rec(10)).unwrap();
        p.insert(rec(5)).unwrap();
        let keys: Vec<_> = p.records().iter().map(|r| r.key.clone()).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut p = Page::new();
        p.append(rec(1)).unwrap();
        assert!(p.insert(rec(1)).is_err());
    }

    #[test]
    fn remove_updates_size() {
        let mut p = Page::new();
        p.append(rec(0)).unwrap();
        p.append(rec(1)).unwrap();
        let before = p.encoded_size();
        let r = p.remove(0);
        assert_eq!(p.encoded_size(), before - r.encoded_len());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn page_rejects_overflow() {
        for fmt in [StoreFormat::V1, StoreFormat::V2] {
            let mut p = Page::new_with_format(fmt);
            let mut i = 0;
            loop {
                let r = rec(i);
                if !p.fits_record(&r) {
                    assert!(p.append(r).is_err());
                    break;
                }
                p.append(r).unwrap();
                i += 1;
            }
            assert!(p.encoded_size() <= PAGE_CAPACITY);
            assert!(i > 100, "page should hold many small records, held {i}");
        }
    }

    #[test]
    fn split_halves_payload() {
        let mut p = Page::new();
        for i in 0..200 {
            p.append(rec(i)).unwrap();
        }
        let total = p.encoded_size();
        let upper = p.split();
        assert!(p.encoded_size() > 0 && upper.encoded_size() > 0);
        assert_eq!(p.encoded_size() + upper.encoded_size(), total);
        assert!(p.last_key().unwrap() < upper.first_key().unwrap());
        let diff = p.encoded_size().abs_diff(upper.encoded_size());
        assert!(
            diff < total / 4,
            "unbalanced split: {} vs {}",
            p.encoded_size(),
            upper.encoded_size()
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Page::decode(&[0u8; 16], 0).is_err());
        let mut img = Page::new().encode().unwrap();
        img[0] = 0xFF;
        assert!(Page::decode(&img, 3).is_err());
    }

    #[test]
    fn empty_page_has_no_keys() {
        let p = Page::new();
        assert_eq!(p.first_key(), None);
        assert_eq!(p.last_key(), None);
        assert!(p.is_empty());
    }
}
