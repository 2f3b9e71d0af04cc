//! Per-operator runtime actuals for `EXPLAIN ANALYZE`.
//!
//! An [`ExecStats`] tree is one atomic-counter slot per plan operator,
//! indexed by [`OpId`]. It is opt-in per run: [`super::Env::stats`] is
//! `None` on the normal query path (no counter traffic at all — the
//! zero-cost-when-disabled contract) and `Some` only under
//! `Engine::analyze`, where cursors record what they actually did:
//!
//! - `rows` — tuples produced by the operator. Deterministic run to
//!   run, which is what the DOM-oracle tests pin down.
//! - `invocations` — cursor pulls (`next_batch` calls; for predicate
//!   operators, context tuples tested).
//! - `batches` — `next_batch` calls that reached the operator.
//! - `nanos` — inclusive wall time attributed at batch granularity
//!   (a batched pull's clock includes the child pulls it triggers).
//! - `probes` / `pins` — buffer-pool page requests and batched page
//!   pins, attributed inclusively per batch from pool counter deltas.
//!
//! Counters are relaxed atomics so cursors can record through the shared
//! `&ExecStats` every [`super::Env`] copy carries; a finished run is read
//! through [`ExecStats::snapshot`].

use crate::plan::OpId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live counters for one operator (all relaxed atomics).
#[derive(Debug, Default)]
pub struct OpActuals {
    /// Cursor pulls (or, for predicates, context tuples tested).
    pub invocations: AtomicU64,
    /// Tuples produced — the mode-independent actual cardinality.
    pub rows: AtomicU64,
    /// Batched pulls that reached this operator.
    pub batches: AtomicU64,
    /// Inclusive wall time, nanoseconds, batch granularity.
    pub nanos: AtomicU64,
    /// Buffer-pool page requests attributed to this operator (inclusive).
    pub probes: AtomicU64,
    /// Batched page pins attributed to this operator (inclusive).
    pub pins: AtomicU64,
}

impl OpActuals {
    fn snapshot(&self) -> OpActualsSnapshot {
        OpActualsSnapshot {
            invocations: self.invocations.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            pins: self.pins.load(Ordering::Relaxed),
        }
    }
}

/// The per-operator actuals tree for one run. One slot per plan
/// operator, parallel to the plan's arena.
#[derive(Debug, Default)]
pub struct ExecStats {
    ops: Vec<OpActuals>,
}

impl ExecStats {
    /// A stats tree with `len` zeroed slots (`len` = `QueryPlan::len()`).
    pub fn new(len: usize) -> Self {
        ExecStats {
            ops: (0..len).map(|_| OpActuals::default()).collect(),
        }
    }

    /// Number of operator slots.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the tree has no slots.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The live counters for `id`, if the slot exists.
    #[inline]
    pub fn op(&self, id: OpId) -> Option<&OpActuals> {
        self.ops.get(id.index())
    }

    /// Adds `n` produced tuples to `id`.
    #[inline]
    pub fn add_rows(&self, id: OpId, n: u64) {
        if let Some(op) = self.op(id) {
            op.rows.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one cursor pull of `id`.
    #[inline]
    pub fn add_invocation(&self, id: OpId) {
        if let Some(op) = self.op(id) {
            op.invocations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one batched pull of `id`.
    #[inline]
    pub fn add_batch(&self, id: OpId) {
        if let Some(op) = self.op(id) {
            op.batches.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds inclusive wall time to `id`.
    #[inline]
    pub fn add_nanos(&self, id: OpId, n: u64) {
        if let Some(op) = self.op(id) {
            op.nanos.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds inclusive buffer-pool probe/pin deltas to `id`.
    #[inline]
    pub fn add_probe_pins(&self, id: OpId, probes: u64, pins: u64) {
        if let Some(op) = self.op(id) {
            op.probes.fetch_add(probes, Ordering::Relaxed);
            op.pins.fetch_add(pins, Ordering::Relaxed);
        }
    }

    /// Adds predicate bookkeeping to `id`: `tested` context tuples in,
    /// `kept` tuples out.
    #[inline]
    pub fn add_predicate(&self, id: OpId, tested: u64, kept: u64) {
        if let Some(op) = self.op(id) {
            op.invocations.fetch_add(tested, Ordering::Relaxed);
            op.rows.fetch_add(kept, Ordering::Relaxed);
        }
    }

    /// A plain-value snapshot of every slot.
    pub fn snapshot(&self) -> ExecStatsSnapshot {
        ExecStatsSnapshot {
            ops: self.ops.iter().map(OpActuals::snapshot).collect(),
        }
    }
}

/// Plain-value counters for one operator (see [`OpActuals`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpActualsSnapshot {
    /// Cursor pulls (or context tuples tested for predicates).
    pub invocations: u64,
    /// Tuples produced — mode independent.
    pub rows: u64,
    /// Batched pulls.
    pub batches: u64,
    /// Inclusive wall time in nanoseconds.
    pub nanos: u64,
    /// Inclusive buffer-pool page requests.
    pub probes: u64,
    /// Inclusive batched page pins.
    pub pins: u64,
}

/// Frozen per-operator actuals of a finished run, indexed like the plan
/// arena.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStatsSnapshot {
    /// One entry per plan operator, in arena order.
    pub ops: Vec<OpActualsSnapshot>,
}

impl ExecStatsSnapshot {
    /// The counters for `id`, if the slot exists.
    pub fn op(&self, id: OpId) -> Option<&OpActualsSnapshot> {
        self.ops.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_ids_are_ignored() {
        let stats = ExecStats::new(2);
        stats.add_rows(OpId(7), 5);
        stats.add_invocation(OpId(7));
        let snap = stats.snapshot();
        assert_eq!(snap.ops.len(), 2);
        assert!(snap.op(OpId(7)).is_none());
        assert_eq!(snap.op(OpId(0)).unwrap().rows, 0);
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let stats = ExecStats::new(3);
        let id = OpId(1);
        stats.add_rows(id, 4);
        stats.add_rows(id, 6);
        stats.add_batch(id);
        stats.add_nanos(id, 100);
        stats.add_probe_pins(id, 3, 1);
        stats.add_predicate(OpId(2), 10, 7);
        let snap = stats.snapshot();
        let op = snap.op(id).unwrap();
        assert_eq!(op.rows, 10);
        assert_eq!(op.batches, 1);
        assert_eq!(op.nanos, 100);
        assert_eq!(op.probes, 3);
        assert_eq!(op.pins, 1);
        let pred = snap.op(OpId(2)).unwrap();
        assert_eq!(pred.invocations, 10);
        assert_eq!(pred.rows, 7);
    }
}
