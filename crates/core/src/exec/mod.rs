//! The pipelined, iterative query execution engine (paper §VII).
//!
//! Execution is pull-based along the context path: each operator is a
//! cursor in one of the paper's three states — INITIAL, FETCHING,
//! OUT_OF_TUPLES (Algorithm 1/2). Tuples are FLEX-keyed [`NodeEntry`]s;
//! node values are fetched lazily only when a predicate or the caller
//! actually needs them.
//!
//! Predicate trees re-run per tuple with dynamically set context
//! (paper §V-B): leaf steps with [`ContextSource::OuterTuple`] anchor at
//! the tuple under test; absolute paths anchor back at the query root.

pub mod fused;
pub mod stats;
pub mod value;

use crate::error::{EngineError, Result};
use crate::plan::{ArithOp, BinOp, ContextSource, OpId, Operator, QueryPlan, TestSpec};
use stats::ExecStats;
use value::Value;
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, AxisStream, KindFilter, NodeFilter};
use vamana_mass::{MassStore, NodeEntry, RecordKind};

/// Tuples per full pull through the pipeline. Large enough to amortize
/// per-batch dispatch to noise, small enough that a batch of entries
/// (key bytes included) stays within L1/L2 cache.
pub const BATCH_SIZE: usize = 256;

/// The paper's operator states (§VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpState {
    /// Not yet asked for a tuple.
    Initial,
    /// Producing tuples.
    Fetching,
    /// Exhausted.
    OutOfTuples,
}

/// Execution environment shared by all operator cursors of one run.
///
/// Two lifetimes keep the plan borrow (`'p`) independent from the store
/// borrow (`'s`): operator cursors only capture store references, so an
/// owning [`crate::engine::QueryStream`] can hold the plan itself and
/// hand out a fresh `Env` per pull.
#[derive(Clone, Copy)]
pub struct Env<'p, 's> {
    /// The plan being executed.
    pub plan: &'p QueryPlan,
    /// The store.
    pub store: &'s MassStore,
    /// The query root context (document node), set by the engine before
    /// execution begins (§V-B).
    pub root_ctx: &'p NodeEntry,
    /// Per-operator actuals collector for `EXPLAIN ANALYZE`. `None` on
    /// the normal query path — cursors then touch no counters at all.
    pub stats: Option<&'p ExecStats>,
}

impl<'p, 's> Env<'p, 's> {
    fn node_filter(&self, axis: Axis, test: &TestSpec) -> Option<NodeFilter> {
        // `None` means "provably empty" (unknown name).
        Some(match test {
            TestSpec::Named(name) => {
                let id = self.store.name_id(name)?;
                if axis.principal_is_attribute() {
                    NodeFilter::attribute(id)
                } else {
                    NodeFilter::element(id)
                }
            }
            TestSpec::Wildcard => {
                if axis.principal_is_attribute() {
                    NodeFilter {
                        kind: KindFilter::Attribute,
                        name: None,
                    }
                } else {
                    NodeFilter::any_element()
                }
            }
            TestSpec::AnyNode => NodeFilter::any(),
            TestSpec::Text => NodeFilter::text(),
            TestSpec::Comment => NodeFilter {
                kind: KindFilter::Comment,
                name: None,
            },
            TestSpec::Pi(target) => NodeFilter {
                kind: KindFilter::Pi,
                name: target.as_ref().and_then(|t| self.store.name_id(t)),
            },
        })
    }
}

/// Runs `plan` to completion, returning the result node-set.
///
/// Under `set_semantics` (XPath node-set semantics) the result is sorted
/// into document order with duplicates removed; otherwise tuples are
/// returned in pipeline order, duplicates included.
pub fn run(env: Env<'_, '_>, set_semantics: bool) -> Result<Vec<NodeEntry>> {
    run_from(env, None, set_semantics)
}

/// Like [`run`], but leaf operators with [`ContextSource::OuterTuple`]
/// anchor at `outer` — the paper's §VII hook for XQuery: "the context
/// node could be provided from another XPath expression".
pub fn run_from(
    env: Env<'_, '_>,
    outer: Option<&NodeEntry>,
    set_semantics: bool,
) -> Result<Vec<NodeEntry>> {
    let top = match env.plan.op(env.plan.root()) {
        Operator::Root { child } => *child,
        _ => Some(env.plan.root()),
    };
    let Some(top) = top else {
        return Ok(Vec::new());
    };
    let started = env.stats.map(|_| std::time::Instant::now());
    let mut out = drain(env, &mut build_iter(env, top, outer)?)?;
    if set_semantics {
        into_document_order(&mut out);
    }
    if let Some(stats) = env.stats {
        // The root operator's actuals are the run's: post-dedup output
        // cardinality and the whole run's wall time. Guarded so a plan
        // whose root *is* the top step does not double-count.
        let root = env.plan.root();
        if matches!(env.plan.op(root), Operator::Root { .. }) {
            stats.add_invocation(root);
            stats.add_rows(root, out.len() as u64);
            if let Some(t0) = started {
                stats.add_nanos(root, t0.elapsed().as_nanos() as u64);
            }
        }
    }
    Ok(out)
}

/// Pulls `iter` to exhaustion, in pipeline order.
fn drain<'s>(env: Env<'_, 's>, iter: &mut OpIter<'s>) -> Result<Vec<NodeEntry>> {
    let mut out = Vec::new();
    while iter.next_batch(env, &mut out, BATCH_SIZE)? > 0 {}
    Ok(out)
}

/// Sorts a node-set into document order and drops duplicates, keeping
/// each node's first occurrence in pipeline order (the sort is stable).
fn into_document_order(nodes: &mut Vec<NodeEntry>) {
    nodes.sort_by(|a, b| a.key.cmp(&b.key));
    nodes.dedup_by(|a, b| a.key == b.key);
}

/// One operator cursor. Every cursor speaks one protocol,
/// [`OpIter::next_batch`].
pub enum OpIter<'s> {
    /// Yields a single anchored context tuple (leaf context source).
    Anchor(Option<NodeEntry>),
    /// A step operator.
    Step(Box<StepIter<'s>>),
    /// A value-index step.
    ValueStep(Box<ValueStepIter<'s>>),
    /// A fused step chain: the whole chain evaluated per record inside
    /// one page-pinned clustered scan.
    Fused(Box<fused::FusedIter<'s>>),
    /// Set union: left stream then right stream (dedup happens at the
    /// top under set semantics). Carries its plan [`OpId`] so analyze
    /// runs can attribute the merged output.
    Union(OpId, Box<OpIter<'s>>, Box<OpIter<'s>>),
    /// Value semi-join (algebra completeness): yields left tuples whose
    /// string value matches some right tuple under the condition.
    Join(std::vec::IntoIter<NodeEntry>),
    /// Scan over a materialized view's cached result set (already in
    /// document order, deduplicated). Carries its plan [`OpId`] and a
    /// cursor position into the shared entry vector.
    View {
        /// The `ViewScan` operator this cursor executes.
        op: OpId,
        /// The view's materialized entries.
        entries: std::sync::Arc<Vec<NodeEntry>>,
        /// Next entry to yield.
        pos: usize,
    },
}

/// Builds the cursor tree for a node-set operator. `outer` is the tuple
/// being filtered when inside a predicate path.
pub fn build_iter<'s>(env: Env<'_, 's>, id: OpId, outer: Option<&NodeEntry>) -> Result<OpIter<'s>> {
    match env.plan.op(id) {
        Operator::Step {
            axis,
            test,
            context,
            source,
            predicates,
        } => {
            Ok(OpIter::Step(Box::new(StepIter {
                op: id,
                axis: *axis,
                // Resolve the node test once — an unknown name means the
                // step is provably empty for every context.
                filter: env.node_filter(*axis, test),
                predicates: predicates.clone(),
                context: Contexts::build(env, *context, *source, outer)?,
                state: OpState::Initial,
                stream: None,
                buffer: Vec::new(),
                buffer_pos: 0,
            })))
        }
        Operator::RangeStep {
            context, source, ..
        }
        | Operator::ValueStep {
            context, source, ..
        } => Ok(OpIter::ValueStep(Box::new(ValueStepIter {
            op: id,
            context: Contexts::build(env, *context, *source, outer)?,
            state: OpState::Initial,
            buffer: Vec::new(),
            buffer_pos: 0,
        }))),
        Operator::Union { left, right } => Ok(OpIter::Union(
            id,
            Box::new(build_iter(env, *left, outer)?),
            Box::new(build_iter(env, *right, outer)?),
        )),
        Operator::Filter { input, predicates } => {
            // Whole-node-set positional filtering: materialize the input
            // in document order (deduplicated), then filter.
            let mut group = drain(env, &mut build_iter(env, *input, outer)?)?;
            into_document_order(&mut group);
            for pred in predicates {
                group = apply_predicate(env, *pred, group, false)?;
            }
            if let Some(stats) = env.stats {
                stats.add_invocation(id);
                stats.add_rows(id, group.len() as u64);
            }
            Ok(OpIter::Join(group.into_iter()))
        }
        Operator::Join { op, left, right } => {
            let mut l_iter = build_iter(env, *left, outer)?;
            let mut r_iter = build_iter(env, *right, outer)?;
            let rights = drain(env, &mut r_iter)?
                .iter()
                .map(|t| value::node_string_value(env.store, t))
                .collect::<Result<Vec<_>>>()?;
            let mut out = Vec::new();
            for t in drain(env, &mut l_iter)? {
                let lv = value::node_string_value(env.store, &t)?;
                let hit = rights.iter().any(|rv| {
                    let l = Value::Str(lv.clone());
                    let r = Value::Str(rv.clone());
                    value::compare(env.store, *op, &l, &r).unwrap_or(false)
                });
                if hit {
                    out.push(t);
                }
            }
            if let Some(stats) = env.stats {
                stats.add_invocation(id);
                stats.add_rows(id, out.len() as u64);
            }
            Ok(OpIter::Join(out.into_iter()))
        }
        Operator::ViewScan { entries, .. } => Ok(OpIter::View {
            op: id,
            entries: std::sync::Arc::clone(entries),
            pos: 0,
        }),
        Operator::FusedScan { .. } => Ok(OpIter::Fused(Box::new(fused::FusedIter::build(
            env, id, outer,
        )?))),
        other => Err(EngineError::Unsupported(format!(
            "operator {other:?} cannot produce a node-set stream"
        ))),
    }
}

fn anchor_for(env: Env<'_, '_>, source: ContextSource, outer: Option<&NodeEntry>) -> NodeEntry {
    match (source, outer) {
        (ContextSource::OuterTuple, Some(t)) => t.clone(),
        _ => env.root_ctx.clone(),
    }
}

impl<'s> OpIter<'s> {
    /// Pulls up to `max` tuples into `out`, returning how many were
    /// appended. A short (or zero) count means the operator is exhausted.
    /// The concatenated tuple sequence does not depend on the `max` of
    /// each pull.
    pub fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        match self {
            OpIter::Anchor(item) => {
                if max > 0 {
                    if let Some(t) = item.take() {
                        out.push(t);
                        return Ok(1);
                    }
                }
                Ok(0)
            }
            OpIter::Step(s) => instrumented(env, s.op, || s.next_batch(env, out, max)),
            OpIter::ValueStep(s) => instrumented(env, s.op, || s.next_batch(env, out, max)),
            OpIter::Fused(f) => instrumented(env, f.op, || f.next_batch(env, out, max)),
            OpIter::Union(id, l, r) => {
                // Left stream first; a short left batch means the left
                // side is exhausted, so top up from the right.
                let mut n = l.next_batch(env, out, max)?;
                if n < max {
                    n += r.next_batch(env, out, max - n)?;
                }
                if let Some(stats) = env.stats {
                    stats.add_invocation(*id);
                    stats.add_batch(*id);
                    stats.add_rows(*id, n as u64);
                }
                Ok(n)
            }
            OpIter::Join(items) => {
                let start = out.len();
                out.extend(items.by_ref().take(max));
                Ok(out.len() - start)
            }
            OpIter::View { op, entries, pos } => {
                let t0 = env.stats.map(|_| std::time::Instant::now());
                let end = (*pos + max).min(entries.len());
                let n = end - *pos;
                out.extend_from_slice(&entries[*pos..end]);
                *pos = end;
                if let Some(stats) = env.stats {
                    stats.add_invocation(*op);
                    stats.add_batch(*op);
                    stats.add_rows(*op, n as u64);
                    if let Some(t0) = t0 {
                        stats.add_nanos(*op, t0.elapsed().as_nanos() as u64);
                    }
                }
                Ok(n)
            }
        }
    }
}

/// Runs one pull of operator `op`. Under `EXPLAIN ANALYZE` it credits
/// the operator with the rows, the wall time and the buffer-pool
/// probe/pin deltas of the pull — inclusive of the child context pulls
/// made during it.
fn instrumented(env: Env<'_, '_>, op: OpId, pull: impl FnOnce() -> Result<usize>) -> Result<usize> {
    let Some(stats) = env.stats else {
        return pull();
    };
    let (p0, pin0) = env.store.buffer_pool().probe_pin_counts();
    let t0 = std::time::Instant::now();
    let got = pull()?;
    let (p1, pin1) = env.store.buffer_pool().probe_pin_counts();
    stats.add_invocation(op);
    stats.add_batch(op);
    stats.add_rows(op, got as u64);
    stats.add_nanos(op, t0.elapsed().as_nanos() as u64);
    stats.add_probe_pins(op, p1.saturating_sub(p0), pin1.saturating_sub(pin0));
    Ok(got)
}

/// A step's context input — `GetNextContext()` of Algorithm 2. Contexts
/// are pulled from the child cursor in batches sized to the caller's
/// outstanding demand (at most [`BATCH_SIZE`]) and handed out one at a
/// time, so a `max = 1` pull touches no more contexts than it needs.
struct Contexts<'s> {
    iter: OpIter<'s>,
    /// Pulled but not yet handed out, reversed so each hand-out is a pop.
    pending: Vec<NodeEntry>,
}

impl<'s> Contexts<'s> {
    /// The child cursor of a step, or its leaf anchor when it has none.
    fn build(
        env: Env<'_, 's>,
        context: Option<OpId>,
        source: ContextSource,
        outer: Option<&NodeEntry>,
    ) -> Result<Self> {
        let iter = match context {
            Some(c) => build_iter(env, c, outer)?,
            None => OpIter::Anchor(Some(anchor_for(env, source, outer))),
        };
        Ok(Contexts {
            iter,
            pending: Vec::new(),
        })
    }

    /// The next context, refilling with at most `demand` contexts when
    /// none is pending; `None` once the child is exhausted.
    fn pull(&mut self, env: Env<'_, 's>, demand: usize) -> Result<Option<NodeEntry>> {
        if self.pending.is_empty() {
            self.iter
                .next_batch(env, &mut self.pending, demand.clamp(1, BATCH_SIZE))?;
            self.pending.reverse();
        }
        Ok(self.pending.pop())
    }
}

/// Cursor for a step operator — Algorithm 1 of the paper.
pub struct StepIter<'s> {
    /// The plan operator this cursor executes (analyze attribution).
    op: OpId,
    axis: Axis,
    /// Node test resolved once at build time; `None` means the name does
    /// not occur in the store, so the step is provably empty.
    filter: Option<NodeFilter>,
    predicates: Vec<OpId>,
    context: Contexts<'s>,
    /// Paper state machine.
    state: OpState,
    /// Lazy axis stream (fast path: no predicates).
    stream: Option<AxisStream<'s>>,
    /// Filtered group (predicate path).
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
}

impl<'s> StepIter<'s> {
    /// Opens the axis for context `ctx`: a lazy stream on the fast path,
    /// or the materialized, predicate-filtered group.
    fn open_stream(&mut self, env: Env<'_, 's>, ctx: &NodeEntry) -> Result<()> {
        self.stream = None;
        self.buffer.clear();
        self.buffer_pos = 0;
        let Some(filter) = self.filter else {
            // Unknown name: provably empty for this context.
            return Ok(());
        };
        let stream = axis_stream(env.store, &ctx.key, ctx.kind, self.axis, filter)?;
        if self.predicates.is_empty() {
            self.stream = Some(stream);
        } else {
            // Materialize the group so position()/last() are available,
            // then filter through each predicate in order.
            let mut group = stream.collect()?;
            for pred in &self.predicates {
                group = apply_predicate(env, *pred, group, self.axis.is_reverse())?;
            }
            self.buffer = group;
        }
        Ok(())
    }

    /// The paper's INITIAL/FETCHING/OUT_OF_TUPLES machine advanced at
    /// batch granularity. The fast (no-predicate) path fills the batch
    /// straight from the axis stream, so page pinning and record
    /// decoding are amortized in `vamana-mass`; the predicate path
    /// materializes one group per context (position()/last() need the
    /// whole group) and copies it out in chunks. One batch may span
    /// several contexts.
    fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        loop {
            let produced = out.len() - start;
            if produced >= max || self.state == OpState::OutOfTuples {
                return Ok(produced);
            }
            if self.state == OpState::Fetching {
                let want = max - produced;
                if let Some(stream) = &mut self.stream {
                    // A full batch may leave more behind; a short one
                    // cannot (the `next_batch` contract), so the context
                    // is exhausted without another probe.
                    if stream.next_batch(out, want)? == want {
                        continue;
                    }
                } else if self.buffer_pos < self.buffer.len() {
                    let take = (self.buffer.len() - self.buffer_pos).min(want);
                    out.extend_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + take]);
                    self.buffer_pos += take;
                    continue;
                }
            }
            // INITIAL, or the current context is exhausted.
            match self.context.pull(env, max - (out.len() - start))? {
                Some(ctx) => {
                    self.state = OpState::Fetching;
                    self.open_stream(env, &ctx)?;
                }
                None => self.state = OpState::OutOfTuples,
            }
        }
    }
}

/// Cursor for the value-index step (`φ value::'v'`).
pub struct ValueStepIter<'s> {
    op: OpId,
    context: Contexts<'s>,
    state: OpState,
    buffer: Vec<NodeEntry>,
    buffer_pos: usize,
}

impl<'s> ValueStepIter<'s> {
    /// Drains the current buffer in chunks and refills from the next
    /// context when it runs dry. Short count means exhausted.
    fn next_batch(
        &mut self,
        env: Env<'_, 's>,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> Result<usize> {
        let start = out.len();
        loop {
            let produced = out.len() - start;
            if produced >= max || self.state == OpState::OutOfTuples {
                return Ok(produced);
            }
            if self.buffer_pos < self.buffer.len() {
                let take = (self.buffer.len() - self.buffer_pos).min(max - produced);
                out.extend_from_slice(&self.buffer[self.buffer_pos..self.buffer_pos + take]);
                self.buffer_pos += take;
                continue;
            }
            self.refill(env, max - produced)?;
        }
    }

    /// Pulls the next context tuple (at most `demand` buffered) and
    /// rebuilds the value-index buffer for it; flips to OUT_OF_TUPLES
    /// when the context stream is exhausted.
    fn refill(&mut self, env: Env<'_, 's>, demand: usize) -> Result<()> {
        let Some(ctx) = self.context.pull(env, demand)? else {
            self.state = OpState::OutOfTuples;
            return Ok(());
        };
        self.state = OpState::Fetching;
        enum Source {
            Eq(Box<str>, Option<bool>),
            Range(crate::plan::RangeCmp, f64, bool),
        }
        let (source, attr_name) = match env.plan.op(self.op) {
            Operator::ValueStep {
                value,
                text_only,
                attr_name,
                ..
            } => (Source::Eq(value.clone(), *text_only), attr_name.clone()),
            Operator::RangeStep {
                op,
                bound,
                text_only,
                attr_name,
                ..
            } => (Source::Range(*op, *bound, *text_only), attr_name.clone()),
            _ => unreachable!("ValueStepIter over non-value-step"),
        };
        let attr_name_id = attr_name.as_deref().map(|n| env.store.name_id(n));
        let range = if ctx.key.is_root() {
            KeyRange::all()
        } else {
            KeyRange::subtree(&ctx.key)
        };
        let (keys, text_only): (Vec<&[u8]>, Option<bool>) = match &source {
            Source::Eq(value, text_only) => {
                (env.store.value_index().keys_eq(value, &range), *text_only)
            }
            Source::Range(op, bound, text_only) => (
                env.store
                    .value_index()
                    .keys_numeric(op.to_mass(), *bound, &range),
                Some(*text_only),
            ),
        };
        let mut buffer = Vec::new();
        for flat in keys {
            let entry = entry_from_value_key(flat);
            let kind_ok = match text_only {
                Some(true) => entry.kind == RecordKind::Text,
                Some(false) => entry.kind == RecordKind::Attribute,
                None => true,
            };
            if !kind_ok {
                continue;
            }
            // Attribute rewrites must also match the attribute
            // name; one point lookup resolves it.
            if let Some(wanted) = &attr_name_id {
                let Some(wanted) = wanted else { continue };
                match env.store.get_entry(&entry.key)? {
                    Some(e) if e.name == Some(*wanted) => {}
                    _ => continue,
                }
            }
            buffer.push(entry);
        }
        self.buffer = buffer;
        self.buffer_pos = 0;
        Ok(())
    }
}

/// Builds a [`NodeEntry`] from a value-index key without touching data
/// pages: attribute keys are recognizable from their reserved label range
/// (first byte of the last label `< 0x40`).
fn entry_from_value_key(flat: &[u8]) -> NodeEntry {
    let key = FlexKey::from_flat(flat.to_vec());
    let kind = match key.last_label().and_then(|l| l.first()) {
        Some(&b) if b < 0x40 => RecordKind::Attribute,
        _ => RecordKind::Text,
    };
    NodeEntry {
        key,
        kind,
        name: None,
    }
}

/// Applies one predicate to a materialized group with XPath position
/// semantics (reverse axes count from the end).
pub fn apply_predicate(
    env: Env<'_, '_>,
    pred: OpId,
    group: Vec<NodeEntry>,
    reverse: bool,
) -> Result<Vec<NodeEntry>> {
    let size = group.len();
    let mut out = Vec::with_capacity(size);
    for (i, tuple) in group.into_iter().enumerate() {
        let position = if reverse { size - i } else { i + 1 };
        let v = eval_expr(env, pred, &tuple, position, size)?;
        let keep = match v {
            Value::Num(n) => position as f64 == n,
            other => other.boolean(),
        };
        if keep {
            out.push(tuple);
        }
    }
    if let Some(stats) = env.stats {
        stats.add_predicate(pred, size as u64, out.len() as u64);
    }
    Ok(out)
}

/// Index-only evaluation of the exist-predicates the optimizer generates
/// (`[parent::S]`, `[child::S]`, `[attribute::S]` with a bare name test):
/// the answer comes from FLEX key arithmetic plus a name-index binary
/// search — no data page is touched. Returns `None` when the predicate
/// shape is more general and the cursor machinery must run.
fn exists_fast_path(env: Env<'_, '_>, path: OpId, ctx: &NodeEntry) -> Option<bool> {
    let Operator::Step {
        axis,
        test: TestSpec::Named(name),
        context: None,
        source: ContextSource::OuterTuple,
        predicates,
    } = env.plan.op(path)
    else {
        return None;
    };
    if !predicates.is_empty() {
        return None;
    }
    let Some(name_id) = env.store.name_id(name) else {
        return Some(false);
    };
    match axis {
        Axis::Parent => {
            let parent = ctx.key.parent()?;
            if parent.is_root() {
                return Some(false);
            }
            Some(
                env.store
                    .name_index()
                    .elements(name_id)
                    .contains(parent.as_flat()),
            )
        }
        Axis::Child => {
            let want_level = ctx.key.level() + 1;
            let range = KeyRange::descendants(&ctx.key);
            Some(
                env.store
                    .name_index()
                    .elements(name_id)
                    .iter_in(&range)
                    .any(|flat| flat.iter().filter(|&&b| b == 0).count() == want_level),
            )
        }
        Axis::Attribute => {
            let want_level = ctx.key.level() + 1;
            let range = KeyRange::descendants(&ctx.key);
            Some(
                env.store
                    .name_index()
                    .attributes(name_id)
                    .iter_in(&range)
                    .any(|flat| flat.iter().filter(|&&b| b == 0).count() == want_level),
            )
        }
        _ => None,
    }
}

/// Evaluates an expression operator against a context tuple.
pub fn eval_expr(
    env: Env<'_, '_>,
    id: OpId,
    ctx: &NodeEntry,
    position: usize,
    size: usize,
) -> Result<Value> {
    match env.plan.op(id) {
        Operator::Exists { path } => {
            if let Some(answer) = exists_fast_path(env, *path, ctx) {
                return Ok(Value::Bool(answer));
            }
            let mut iter = build_iter(env, *path, Some(ctx))?;
            Ok(Value::Bool(iter.next_batch(env, &mut Vec::new(), 1)? > 0))
        }
        Operator::Binary { op, left, right } => match op {
            BinOp::And => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                if !l.boolean() {
                    return Ok(Value::Bool(false));
                }
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(r.boolean()))
            }
            BinOp::Or => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                if l.boolean() {
                    return Ok(Value::Bool(true));
                }
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(r.boolean()))
            }
            cmp => {
                let l = eval_expr(env, *left, ctx, position, size)?;
                let r = eval_expr(env, *right, ctx, position, size)?;
                Ok(Value::Bool(value::compare(env.store, *cmp, &l, &r)?))
            }
        },
        Operator::Literal { value } => Ok(Value::Str(value.to_string())),
        Operator::Number { value } => Ok(Value::Num(*value)),
        Operator::Arith { op, left, right } => {
            let l = eval_expr(env, *left, ctx, position, size)?.number(env.store)?;
            let r = eval_expr(env, *right, ctx, position, size)?.number(env.store)?;
            Ok(Value::Num(match op {
                ArithOp::Add => l + r,
                ArithOp::Sub => l - r,
                ArithOp::Mul => l * r,
                ArithOp::Div => l / r,
                ArithOp::Mod => l % r,
            }))
        }
        Operator::Neg { child } => {
            let v = eval_expr(env, *child, ctx, position, size)?.number(env.store)?;
            Ok(Value::Num(-v))
        }
        Operator::Function { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(env, *a, ctx, position, size)?);
            }
            value::call_function(env.store, name, &vals, ctx, position, size)
        }
        Operator::Step { .. }
        | Operator::ValueStep { .. }
        | Operator::RangeStep { .. }
        | Operator::Union { .. }
        | Operator::Filter { .. }
        | Operator::Join { .. }
        | Operator::ViewScan { .. }
        | Operator::FusedScan { .. } => {
            // A path in expression position: collect its node-set,
            // deduplicated in document order.
            let mut nodes = drain(env, &mut build_iter(env, id, Some(ctx))?)?;
            into_document_order(&mut nodes);
            Ok(Value::Nodes(nodes))
        }
        Operator::Root { .. } => Err(EngineError::Unsupported(
            "nested root operator in expression".into(),
        )),
    }
}
