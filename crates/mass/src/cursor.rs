//! Forward cursor over the clustered index.
//!
//! A [`MassCursor`] iterates records in document order within a
//! [`KeyRange`], crossing page boundaries through the buffer pool. Its
//! [`MassCursor::seek`] method is the primitive behind MASS's
//! sibling-jump evaluation: a child/sibling scan leaps over whole
//! subtrees by seeking their `subtree_upper` bound instead of reading
//! through them.

use crate::error::Result;
use crate::page::Page;
use crate::record::NodeRecord;
use crate::store::MassStore;
use std::sync::Arc;
use vamana_flex::KeyRange;

/// Document-order record cursor bounded by a key range.
pub struct MassCursor<'a> {
    store: &'a MassStore,
    hi: Option<Vec<u8>>,
    /// Position in the store's sparse index.
    page_pos: usize,
    rec_pos: usize,
    page: Option<Arc<Page>>,
    /// Set by `seek`; resolved to `rec_pos` when the page is loaded.
    pending_seek: Option<Vec<u8>>,
    done: bool,
}

impl<'a> MassCursor<'a> {
    /// A cursor positioned at the first record inside `range`.
    pub fn new(store: &'a MassStore, range: KeyRange) -> Self {
        let mut c = MassCursor {
            store,
            hi: range.hi.clone(),
            page_pos: 0,
            rec_pos: 0,
            page: None,
            pending_seek: None,
            done: false,
        };
        c.seek(&range.lo);
        c
    }

    /// Repositions the cursor at the first record with key `>= flat`
    /// (which may be before or after the current position). The upper
    /// bound is unchanged.
    pub fn seek(&mut self, flat: &[u8]) {
        self.page = None;
        self.done = false;
        if self.store.index.is_empty() {
            self.done = true;
            return;
        }
        let pos = self
            .store
            .index
            .partition_point(|(first, _)| first.as_slice() <= flat);
        self.page_pos = pos.saturating_sub(1);
        self.pending_seek = Some(flat.to_vec());
    }

    /// Loads pages until the cursor rests on an in-range record.
    /// Returns `false` when the range is exhausted.
    fn position(&mut self) -> Result<bool> {
        loop {
            if self.done {
                return Ok(false);
            }
            if self.page.is_none() {
                if self.page_pos >= self.store.index.len() {
                    self.done = true;
                    return Ok(false);
                }
                let page = self.store.pool.get(self.store.index[self.page_pos].1)?;
                self.rec_pos = match self.pending_seek.take() {
                    Some(target) => match page.find(&target) {
                        Ok(i) | Err(i) => i,
                    },
                    None => 0,
                };
                self.page = Some(page);
            }
            let page = self.page.as_ref().expect("just loaded");
            if self.rec_pos >= page.len() {
                self.page = None;
                self.page_pos += 1;
                continue;
            }
            if let Some(hi) = &self.hi {
                if page.records()[self.rec_pos].key.as_flat() >= hi.as_slice() {
                    self.done = true;
                    return Ok(false);
                }
            }
            return Ok(true);
        }
    }

    /// Pulls the next record, or `None` when the range is exhausted.
    #[allow(clippy::should_implement_trait)] // fallible, so not Iterator
    pub fn next(&mut self) -> Result<Option<NodeRecord>> {
        if !self.position()? {
            return Ok(None);
        }
        let rec = self.page.as_ref().expect("positioned").records()[self.rec_pos].clone();
        self.rec_pos += 1;
        Ok(Some(rec))
    }

    /// Pulls up to `max` records as [`crate::axes::NodeEntry`]s into
    /// `out`, pinning each page once and decoding every qualifying record
    /// on it in one pass. Returns the number of entries appended; a short
    /// (or zero) count means the range is exhausted.
    ///
    /// This is the batched hot path: the per-record work shrinks to a key
    /// clone and a push, while page lookup, shard locking, and the upper
    /// bound comparison are amortized across the whole page (the bound is
    /// resolved once per page by binary search instead of once per
    /// record).
    pub fn next_batch(
        &mut self,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        self.batch_scan(out, max, |_| Some(true))
    }

    /// Like [`MassCursor::next_batch`], but with a caller-supplied
    /// stateful predicate deciding which records materialize an entry.
    ///
    /// This is the entry point for whole-query fused scans in
    /// `vamana-core`: the closure threads a path-matching automaton over
    /// the records of every pinned page, so an entire step chain is
    /// evaluated under one page pin per page instead of one scan per
    /// location step.
    pub fn next_batch_where(
        &mut self,
        mut keep: impl FnMut(&NodeRecord) -> bool,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        self.batch_scan(out, max, |rec| Some(keep(rec)))
    }

    /// Like [`MassCursor::next_batch`], but applies the axis-level record
    /// checks inline before materializing an entry — the backing of
    /// [`crate::axes::AxisStream::next_batch`] for clustered scans.
    pub(crate) fn next_batch_filtered(
        &mut self,
        filter: &crate::axes::NodeFilter,
        skip_attrs: bool,
        not_ancestor_of: Option<&vamana_flex::FlexKey>,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        self.batch_scan(out, max, |rec| {
            if skip_attrs && rec.kind == crate::record::RecordKind::Attribute {
                return Some(false);
            }
            if let Some(ctx) = not_ancestor_of {
                if rec.key.is_ancestor_of(ctx) {
                    return Some(false);
                }
            }
            Some(filter.matches_parts(rec.kind, rec.name))
        })
    }

    /// Batched attribute scan: attributes cluster directly after their
    /// element, so the scan ends for good at the first non-attribute
    /// record — the backing of the attribute axis.
    pub(crate) fn next_batch_attributes(
        &mut self,
        filter: &crate::axes::NodeFilter,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        self.batch_scan(out, max, |rec| {
            (rec.kind == crate::record::RecordKind::Attribute).then(|| filter.matches(rec))
        })
    }

    /// Batched sibling-jump scan: like [`MassCursor::next_batch_filtered`]
    /// but after visiting a record it skips the record's whole subtree
    /// (the MASS sibling jump), so only nodes at the scan level are
    /// visited — the batched backing of the `JumpScan` axis mode.
    ///
    /// The win over one seek per jump is that a jump whose target
    /// lands on the *same* page is resolved by binary search over the
    /// already-pinned records; only jumps that leave the page pay for a
    /// buffer-pool lookup. Sibling runs cluster on few pages, so most
    /// jumps stay in-page.
    pub(crate) fn next_batch_jump(
        &mut self,
        filter: &crate::axes::NodeFilter,
        skip_attrs: bool,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        while out.len() - start < max {
            if !self.position()? {
                break;
            }
            let page_id = self.store.index[self.page_pos].1;
            let page = self.page.clone().expect("positioned");
            let records = page.records();
            let end = match &self.hi {
                Some(hi) => {
                    self.rec_pos
                        + records[self.rec_pos..]
                            .partition_point(|r| r.key.as_flat() < hi.as_slice())
                }
                None => records.len(),
            };
            let mut i = self.rec_pos;
            let mut visited = 0u64;
            let mut sought = false;
            while i < end && out.len() - start < max {
                let rec = &records[i];
                visited += 1;
                if (!skip_attrs || rec.kind != crate::record::RecordKind::Attribute)
                    && filter.matches_parts(rec.kind, rec.name)
                {
                    out.push(crate::axes::NodeEntry {
                        key: rec.key.clone(),
                        kind: rec.kind,
                        name: rec.name,
                    });
                }
                // Jump past this record's subtree to its next sibling.
                // A descendant's flat key extends its ancestor's, so the
                // subtree is exactly the run of records whose keys start
                // with this one — partitioned without materializing the
                // `subtree_upper` bound.
                let flat = rec.key.as_flat();
                if flat.is_empty() {
                    i += 1;
                } else {
                    let target = i
                        + 1
                        + records[i + 1..end]
                            .partition_point(|r| r.key.as_flat().starts_with(flat));
                    if target >= end && end == records.len() {
                        // The subtree may continue past this page: fall
                        // back to a full seek (upper bound is preserved
                        // by `seek`), allocating the bound only here.
                        let upper = rec.key.subtree_upper().expect("non-root");
                        self.rec_pos = i + 1;
                        self.seek(&upper);
                        sought = true;
                        break;
                    }
                    i = target;
                }
            }
            if visited > 0 {
                self.store.pool.note_batch(page_id, visited);
            }
            if sought {
                continue;
            }
            self.rec_pos = i;
            if i >= end {
                if end < records.len() {
                    // The upper bound falls inside this page.
                    self.done = true;
                    break;
                }
                self.page = None;
                self.page_pos += 1;
            }
        }
        Ok(out.len() - start)
    }

    /// Shared batched scan: walks whole pinned pages, appending entries
    /// for records where `keep` says `Some(true)`, until `max` entries
    /// were produced or the range is exhausted. `keep` returning `None`
    /// ends the scan for good at that record.
    fn batch_scan(
        &mut self,
        out: &mut Vec<crate::axes::NodeEntry>,
        max: usize,
        mut keep: impl FnMut(&NodeRecord) -> Option<bool>,
    ) -> Result<usize> {
        let start = out.len();
        while out.len() - start < max {
            if !self.position()? {
                break;
            }
            let page_id = self.store.index[self.page_pos].1;
            let page = self.page.clone().expect("positioned");
            let records = page.records();
            // Resolve the upper bound once for the whole page instead of
            // comparing keys record by record.
            let end = match &self.hi {
                Some(hi) => {
                    self.rec_pos
                        + records[self.rec_pos..]
                            .partition_point(|r| r.key.as_flat() < hi.as_slice())
                }
                None => records.len(),
            };
            let mut i = self.rec_pos;
            let mut stopped = false;
            while i < end && out.len() - start < max {
                let rec = &records[i];
                i += 1;
                match keep(rec) {
                    Some(true) => out.push(crate::axes::NodeEntry {
                        key: rec.key.clone(),
                        kind: rec.kind,
                        name: rec.name,
                    }),
                    Some(false) => {}
                    None => {
                        stopped = true;
                        break;
                    }
                }
            }
            let scanned = (i - self.rec_pos) as u64;
            self.rec_pos = i;
            if scanned > 0 {
                self.store.pool.note_batch(page_id, scanned);
            }
            if stopped {
                self.done = true;
                break;
            }
            if i >= end {
                if end < records.len() {
                    // The upper bound falls inside this page.
                    self.done = true;
                    break;
                }
                // Page fully consumed: unpin and move on.
                self.page = None;
                self.page_pos += 1;
            }
        }
        Ok(out.len() - start)
    }

    /// Key of the record `next` would return, without consuming it.
    pub fn peek_key(&mut self) -> Result<Option<Vec<u8>>> {
        if !self.position()? {
            return Ok(None);
        }
        Ok(Some(
            self.page.as_ref().expect("positioned").records()[self.rec_pos]
                .key
                .as_flat()
                .to_vec(),
        ))
    }
}

// Cursor behavior is tested together with the loader in
// `crate::loader::tests` (a cursor needs a populated store).
