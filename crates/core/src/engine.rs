//! The [`Engine`] facade: parse → compile → optimize → execute.
//!
//! This is the public face of VAMANA (paper Fig 2): it owns a
//! [`MassStore`], compiles XPath text through the XPath compiler and plan
//! builder, runs the cost-driven optimizer, and executes plans with the
//! pipelined engine.

use crate::cost::estimate;
use crate::error::{EngineError, Result};
use crate::exec::{self, value::Value, Env};
use crate::explain::Analysis;
use crate::opt::{self, OptEvent, OptimizeOutcome, OptimizerOptions};
use crate::plan::{builder::build_plan, display, Operator, QueryPlan};
use crate::shared::QueryProfile;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vamana_flex::KeyRange;
use vamana_mass::{DocId, MassStore, NodeEntry, RecordKind, WalStats};
use vamana_xpath::{parse, Expr};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Run the cost-driven optimizer (`false` = execute default plans,
    /// the paper's "VQP" configuration; `true` = "VQP-OPT").
    pub optimize: bool,
    /// XPath node-set semantics: results sorted in document order with
    /// duplicates removed.
    pub set_semantics: bool,
    /// Optimizer iteration bound.
    pub max_opt_iterations: usize,
    /// Semantic result caching ([`crate::views`]): materialize the
    /// results of hot fragment queries and answer later queries from
    /// them when containment holds and the cost model agrees. Off by
    /// default; requires `set_semantics` (views hold set-semantics
    /// results).
    pub views: bool,
    /// Byte budget for materialized views; least-recently-used views are
    /// evicted past it.
    pub view_budget_bytes: u64,
    /// How many times a fragment query must be seen before its result is
    /// materialized.
    pub view_admit_after: u32,
    /// Accept every *sound* view rewrite regardless of estimated cost —
    /// for differential testing and diagnostics, where the goal is to
    /// exercise the rewrite path, not to win the cost race.
    pub view_greedy: bool,
    /// Whole-query fusion ([`crate::opt::fuse`]): collapse the
    /// scan-bound suffix of a step chain into a single page-pinned
    /// [`Operator::FusedScan`] when the cost model agrees. Off by
    /// default; requires `set_semantics` (a fused scan emits each
    /// matching node exactly once).
    pub fuse: bool,
    /// Accept every extractable fusion candidate regardless of
    /// estimated cost — for differential testing and benchmarking the
    /// fused execution path itself.
    pub fuse_force: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            optimize: true,
            set_semantics: true,
            max_opt_iterations: 8,
            views: false,
            view_budget_bytes: 64 << 20,
            view_admit_after: 2,
            view_greedy: false,
            fuse: false,
            fuse_force: false,
        }
    }
}

/// What [`Engine::parallel_stats`] returns: the morsel count of the
/// deleted parallel scan path, which always reads zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Morsel tasks submitted (always zero).
    pub morsels: u64,
}

/// A logical update routed through [`Engine::apply_update`]: targets are
/// named by XPath, content arrives as an XML fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// Append `fragment` as the last child of the first node matching
    /// `target`.
    Insert {
        /// XPath selecting the insertion parent (first match wins).
        target: String,
        /// XML fragment with a single root element.
        fragment: String,
    },
    /// Delete the subtrees of *all* nodes matching `target`.
    Delete {
        /// XPath selecting the nodes to remove.
        target: String,
    },
}

/// What an [`Engine::apply_update`] did.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Document the update ran against.
    pub doc: DocId,
    /// Nodes matched by the target XPath.
    pub matched: u64,
    /// Records inserted (fragment size, attributes and text included).
    pub inserted: u64,
    /// Records deleted (whole subtrees).
    pub deleted: u64,
    /// WAL commit LSN of the last logged operation (0 for volatile
    /// stores).
    pub lsn: u64,
    /// The document's generation *after* the update — plan caches keyed
    /// on `(doc, doc_generation)` use this to invalidate.
    pub doc_generation: u64,
    /// Execution profile: target resolution + apply. `writer_wait` is
    /// the time spent acquiring the engine write lock, filled in by
    /// [`crate::SharedEngine::apply_update`]; zero when the caller
    /// already held the engine exclusively.
    pub profile: QueryProfile,
}

/// A compiled-and-explained query (used by examples and the figures
/// harness to show before/after plans).
#[derive(Debug, Clone)]
pub struct Explain {
    /// Rendered default plan with cost annotations.
    pub default_plan: String,
    /// Rendered optimized plan with cost annotations.
    pub optimized_plan: String,
    /// Σ OUT of the default plan.
    pub default_cost: u64,
    /// Σ OUT of the optimized plan.
    pub optimized_cost: u64,
    /// Applied rule names, in order.
    pub applied: Vec<&'static str>,
    /// Optimizer iterations.
    pub iterations: usize,
    /// The optimizer's ordered pass log: clean-up / cost-gathering /
    /// every rule decision with before/after costs (render with
    /// [`crate::opt::OptTrace::render`]).
    pub opt_trace: crate::opt::OptTrace,
}

/// A streaming query cursor: owns its plan and pulls batches of tuples
/// through the pipelined executor (see [`Engine::stream`]).
pub struct QueryStream<'s> {
    store: &'s MassStore,
    plan: Box<QueryPlan>,
    root_ctx: NodeEntry,
    iter: exec::OpIter<'s>,
    done: bool,
    /// The remainder of the batch [`QueryStream::next`] last pulled,
    /// held *in reverse* so each pull is an O(1) pop without cloning.
    pending: Vec<NodeEntry>,
}

impl<'s> QueryStream<'s> {
    fn new(engine: &'s Engine, plan: QueryPlan, root_ctx: NodeEntry) -> Result<Self> {
        if engine.options().views {
            if crate::views::plan_view(&plan).is_some() {
                engine.views().record_hit();
            } else {
                engine.views().record_miss();
            }
        }
        engine.record_fused(&plan);
        let plan = Box::new(plan);
        let top = match plan.op(plan.root()) {
            Operator::Root { child } => *child,
            _ => Some(plan.root()),
        };
        let iter = match top {
            Some(top) => {
                let env = Env {
                    plan: &plan,
                    store: engine.store(),
                    root_ctx: &root_ctx,
                    stats: None,
                };
                exec::build_iter(env, top, None)?
            }
            None => exec::OpIter::Anchor(None),
        };
        Ok(QueryStream {
            store: engine.store(),
            plan,
            root_ctx,
            iter,
            done: false,
            pending: Vec::new(),
        })
    }

    /// Pulls the next tuple in pipeline order, or `None` when exhausted.
    /// A thin adapter over [`QueryStream::next_batch`]: it refills an
    /// internal batch every [`exec::BATCH_SIZE`] pulls.
    #[allow(clippy::should_implement_trait)] // fallible
    pub fn next(&mut self) -> Result<Option<NodeEntry>> {
        if self.pending.is_empty() {
            let mut batch = std::mem::take(&mut self.pending);
            self.next_batch(&mut batch, exec::BATCH_SIZE)?;
            batch.reverse();
            self.pending = batch;
        }
        Ok(self.pending.pop())
    }

    /// Pulls up to `max` tuples into `out`, returning how many were
    /// appended. Zero means the stream is exhausted. This is the
    /// materialization-free consumption path: the serving layer drains
    /// whole batches into its result buffer without per-tuple dispatch.
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        let start = out.len();
        // Leftovers from interleaved `next` pulls come first (reversed).
        while out.len() - start < max {
            match self.pending.pop() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        if self.done || out.len() - start >= max {
            return Ok(out.len() - start);
        }
        let env = Env {
            plan: &self.plan,
            store: self.store,
            root_ctx: &self.root_ctx,
            stats: None,
        };
        let budget = max - (out.len() - start);
        if self.iter.next_batch(env, out, budget)? == 0 {
            self.done = true;
        }
        Ok(out.len() - start)
    }

    /// The (possibly optimized) plan this stream executes.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }
}

/// The VAMANA XPath engine.
pub struct Engine {
    store: MassStore,
    options: EngineOptions,
    /// Materialized-view cache (consulted only when `options.views`).
    views: crate::views::ViewCache,
    /// Cumulative count of queries executed through a fused chain.
    fused_chains: AtomicU64,
    /// Cumulative count of location steps those chains collapsed.
    fused_steps: AtomicU64,
}

impl Engine {
    /// Wraps a store with default options (optimizer on).
    pub fn new(store: MassStore) -> Self {
        Self::with_options(store, EngineOptions::default())
    }

    /// Wraps a store with explicit options.
    pub fn with_options(store: MassStore, options: EngineOptions) -> Self {
        Engine {
            store,
            options,
            views: crate::views::ViewCache::new(),
            fused_chains: AtomicU64::new(0),
            fused_steps: AtomicU64::new(0),
        }
    }

    /// The materialized-view cache (counters, listing, manual clears).
    pub fn views(&self) -> &crate::views::ViewCache {
        &self.views
    }

    /// The underlying store.
    pub fn store(&self) -> &MassStore {
        &self.store
    }

    /// Mutable store access (loading documents, updates). Readers borrow
    /// the store through `&self` (queries, open [`QueryStream`]s), so the
    /// borrow checker — or, across threads, the
    /// [`crate::SharedEngine`] write lock — already excludes them.
    pub fn store_mut(&mut self) -> &mut MassStore {
        &mut self.store
    }

    /// Swaps the underlying store wholesale — a replica installing a
    /// snapshot shipped from its primary. Callers owning plan caches
    /// must clear them: the new store's document generations restart at
    /// zero.
    pub fn replace_store(&mut self, store: MassStore) {
        self.store = store;
        // The new store's generations restart at zero; every resident
        // view is untrusted.
        self.views.clear();
    }

    /// Always zero: queries run on the serial batched pipeline, which
    /// fans nothing out. Kept so readers of the former morsel counters
    /// keep compiling until they drop them.
    pub fn parallel_stats(&self) -> ParallelScanStats {
        ParallelScanStats::default()
    }

    /// Current options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Mutable options (toggle the optimizer between runs).
    pub fn options_mut(&mut self) -> &mut EngineOptions {
        &mut self.options
    }

    /// Convenience: parse and load an XML string as a document.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        Ok(self.store.load_xml(name, xml)?)
    }

    /// Applies a logical update to `doc`: resolves the target XPath under
    /// shared access, then routes the mutation through the store's
    /// WAL-logged update path. Inserts append the
    /// fragment to the *first* match; deletes remove the subtrees of
    /// *every* match (skipping nodes already removed as part of an
    /// earlier match's subtree).
    pub fn apply_update(&mut self, doc: DocId, op: &UpdateOp) -> Result<UpdateOutcome> {
        let start = Instant::now();
        let buffer_before = self.store().buffer_pool().stats();
        let target = match op {
            UpdateOp::Insert { target, .. } | UpdateOp::Delete { target } => target,
        };
        let matched = self.query_doc(doc, target)?;
        if let UpdateOp::Insert { .. } = op {
            if let Some(first) = matched.first() {
                if !matches!(first.kind, RecordKind::Element | RecordKind::Document) {
                    return Err(EngineError::Unsupported(
                        "insert target must be an element or document node".into(),
                    ));
                }
            }
        }
        let store = &mut self.store;
        let tuples_before = store.stats().tuples;
        let mut deleted = 0u64;
        match op {
            UpdateOp::Insert { fragment, .. } => {
                if let Some(first) = matched.first() {
                    store.append_fragment(&first.key, fragment)?;
                }
            }
            UpdateOp::Delete { .. } => {
                for entry in &matched {
                    if store.contains(&entry.key)? {
                        deleted += store.delete_subtree(&entry.key)?;
                    }
                }
            }
        }
        let inserted = store.stats().tuples.saturating_sub(tuples_before);
        let lsn = store.wal_stats().last_lsn;
        let doc_generation = store.doc_generation(doc);
        // Eager invalidation on the primary's write path; replica replay
        // bumps generations without coming through here and is covered by
        // the lazy generation check in `ViewCache::candidates`.
        self.views.invalidate_doc(doc.0);
        let buffer_after = self.store().buffer_pool().stats();
        let profile = QueryProfile {
            elapsed: start.elapsed(),
            buffer_hits: buffer_after.hits.saturating_sub(buffer_before.hits),
            buffer_misses: buffer_after.misses.saturating_sub(buffer_before.misses),
            rows: matched.len() as u64,
            ..QueryProfile::default()
        };
        Ok(UpdateOutcome {
            doc,
            matched: matched.len() as u64,
            inserted,
            deleted,
            lsn,
            doc_generation,
            profile,
        })
    }

    /// Folds the WAL into the page store and truncates it (see
    /// [`MassStore::checkpoint`]). Returns the post-checkpoint WAL
    /// counters.
    pub fn checkpoint(&mut self) -> Result<WalStats> {
        self.store.checkpoint()?;
        Ok(self.store.wal_stats())
    }

    fn doc_entry(&self, doc: DocId) -> Result<NodeEntry> {
        let info = self.store.document(doc).ok_or(EngineError::NoDocuments)?;
        Ok(NodeEntry {
            key: info.doc_key.clone(),
            kind: RecordKind::Document,
            name: None,
        })
    }

    fn doc_scope(&self, doc: DocId) -> Result<KeyRange> {
        let info = self.store.document(doc).ok_or(EngineError::NoDocuments)?;
        Ok(KeyRange::subtree(&info.doc_key))
    }

    /// Compiles an XPath expression to its default plan.
    pub fn compile(&self, xpath: &str) -> Result<QueryPlan> {
        let expr = parse(xpath)?;
        build_plan(&expr)
    }

    /// Optimizes a plan for `doc` and reports the outcome.
    pub fn optimize_plan(&self, plan: QueryPlan, doc: DocId) -> Result<OptimizeOutcome> {
        let scope = self.doc_scope(doc)?;
        let opts = OptimizerOptions {
            max_iterations: self.options.max_opt_iterations,
            set_semantics: self.options.set_semantics,
            disabled_rules: Vec::new(),
        };
        // The view/fusion probe is the *cleaned compiled* plan:
        // optimizer rules (child push-down, parent inversion) introduce
        // reverse-axis predicates that fall outside both the
        // containment fragment and the fusable fragment, so pattern
        // extraction must see the plan before they run.
        let probe =
            ((self.options.views || self.options.fuse) && self.options.set_semantics).then(|| {
                let mut p = plan.clone();
                opt::cleanup::cleanup(&mut p);
                p
            });
        let mut outcome = opt::optimize(plan, self.store(), &scope, &opts)?;
        if let Some(probe) = &probe {
            if self.options.views {
                self.apply_view_rewrite(&mut outcome, probe, doc, &scope)?;
            }
            if self.options.fuse {
                self.apply_fuse(&mut outcome, probe, &scope)?;
            }
        }
        Ok(outcome)
    }

    /// The semantic-cache rewrite stage: try to answer the query from a
    /// materialized view. For each spine prefix of the query's tree
    /// pattern (longest first) and each valid view of `doc`, a
    /// homomorphism check decides containment; a sound rewrite replaces
    /// the covered steps with a [`Operator::ViewScan`] (plus
    /// compensation when the containment is strict) and is kept only
    /// when re-estimation beats the optimizer's plan — unless
    /// `view_greedy`. Every considered rewrite lands in the optimizer
    /// trace, accepted or rejected.
    fn apply_view_rewrite(
        &self,
        outcome: &mut OptimizeOutcome,
        probe: &QueryPlan,
        doc: DocId,
        scope: &KeyRange,
    ) -> Result<()> {
        let base_total = outcome.costs.total();
        let trace = &mut outcome.opt_trace.events;
        let Some(pattern) = crate::views::extract(probe) else {
            trace.push(OptEvent::ViewRewrite {
                view: "-".to_string(),
                total_before: base_total,
                total_after: None,
                applied: false,
                reason: "query outside the containment fragment",
            });
            return Ok(());
        };
        let generation = self.store.doc_generation(doc);
        let candidates = self.views.candidates(doc.0, generation);
        if candidates.is_empty() {
            trace.push(OptEvent::ViewRewrite {
                view: "-".to_string(),
                total_before: base_total,
                total_after: None,
                applied: false,
                reason: "no valid views for this document",
            });
            return Ok(());
        }
        // (plan, costs, total, trace index, view key)
        let mut best: Option<(QueryPlan, crate::cost::PlanCosts, u64, usize, String)> = None;
        for j in (1..=pattern.spine.len()).rev() {
            let prefix = pattern.prefix(j);
            let full = j == pattern.spine.len();
            for cand in &candidates {
                if !crate::views::contains(&cand.pattern, &prefix) {
                    if full {
                        trace.push(OptEvent::ViewRewrite {
                            view: cand.xpath.clone(),
                            total_before: base_total,
                            total_after: None,
                            applied: false,
                            reason: "containment not proven",
                        });
                    }
                    continue;
                }
                let equivalent = crate::views::contains(&prefix, &cand.pattern);
                if !equivalent && !prefix.descendant_rooted() {
                    trace.push(OptEvent::ViewRewrite {
                        view: cand.xpath.clone(),
                        total_before: base_total,
                        total_after: None,
                        applied: false,
                        reason: "absolute prefix requires an exact view",
                    });
                    continue;
                }
                let rewritten = crate::views::rewrite_with_view(
                    probe,
                    j,
                    equivalent,
                    &cand.xpath,
                    &cand.entries,
                );
                let costs = estimate(&rewritten, self.store(), scope)?;
                let total = costs.total();
                let accept = self.options.view_greedy || total < base_total;
                trace.push(OptEvent::ViewRewrite {
                    view: cand.xpath.clone(),
                    total_before: base_total,
                    total_after: Some(total),
                    applied: false,
                    reason: if accept {
                        if equivalent {
                            "equivalent — answered from view"
                        } else {
                            "contained — view scan + compensation"
                        }
                    } else {
                        "costlier than the optimized plan"
                    },
                });
                if accept && best.as_ref().is_none_or(|(_, _, t, _, _)| total < *t) {
                    let idx = trace.len() - 1;
                    best = Some((rewritten, costs, total, idx, cand.key.clone()));
                }
            }
            if best.is_some() {
                break; // longest covered prefix wins
            }
        }
        if let Some((mut plan, costs, total, idx, key)) = best {
            if let OptEvent::ViewRewrite { applied, .. } = &mut outcome.opt_trace.events[idx] {
                *applied = true;
            }
            plan.set_estimates(costs.cards(plan.len(), self.store.tuples_per_page()));
            self.views.touch(doc.0, &key);
            outcome.plan = plan;
            outcome.costs = costs;
            outcome.final_cost = total;
        }
        Ok(())
    }

    /// The whole-query fusion stage: collapse the plan's scan-bound
    /// step-chain suffix into a single page-pinned
    /// [`Operator::FusedScan`]. When a view rewrite was applied, the
    /// fused chain is the residual on top of the `ViewScan`; otherwise
    /// candidates come from the cleaned pre-rewrite probe. The
    /// candidate is kept only when re-estimation beats the current plan
    /// — unless `fuse_force` — and the decision lands in the optimizer
    /// trace either way.
    fn apply_fuse(
        &self,
        outcome: &mut OptimizeOutcome,
        probe: &QueryPlan,
        scope: &KeyRange,
    ) -> Result<()> {
        let base_total = outcome.costs.total();
        let base = if crate::views::plan_view(&outcome.plan).is_some() {
            &outcome.plan
        } else {
            probe
        };
        let cand = match opt::fuse::extract_candidate(base) {
            Ok(c) => c,
            Err(reason) => {
                outcome.opt_trace.events.push(OptEvent::Fuse {
                    label: "-".to_string(),
                    steps: 0,
                    total_before: base_total,
                    total_after: None,
                    applied: false,
                    reason,
                });
                return Ok(());
            }
        };
        let costs = estimate(&cand.plan, self.store(), scope)?;
        let total = costs.total();
        let accept = self.options.fuse_force || total < base_total;
        outcome.opt_trace.events.push(OptEvent::Fuse {
            label: cand.label,
            steps: cand.steps,
            total_before: base_total,
            total_after: Some(total),
            applied: accept,
            reason: if self.options.fuse_force {
                "forced"
            } else if accept {
                "fused scan beats the step pipeline"
            } else {
                "costlier than the step pipeline"
            },
        });
        if accept {
            let mut plan = cand.plan;
            plan.set_estimates(costs.cards(plan.len(), self.store.tuples_per_page()));
            outcome.plan = plan;
            outcome.costs = costs;
            outcome.final_cost = total;
        }
        Ok(())
    }

    /// Cumulative fused-execution counters: queries answered through a
    /// fused chain, and the location steps those chains collapsed.
    pub fn fused_stats(&self) -> (u64, u64) {
        (
            self.fused_chains.load(Ordering::Relaxed),
            self.fused_steps.load(Ordering::Relaxed),
        )
    }

    /// Bumps the cumulative fused counters for one execution of `plan`.
    pub(crate) fn record_fused(&self, plan: &QueryPlan) {
        let (chains, steps) = crate::plan::fused_in_plan(plan);
        if chains > 0 {
            self.fused_chains.fetch_add(chains, Ordering::Relaxed);
            self.fused_steps.fetch_add(steps, Ordering::Relaxed);
        }
    }

    /// Records a set-semantics query result with the view cache:
    /// admission counting for fragment queries and materialization once
    /// the frequency threshold is met. Returns `true` when this call
    /// *newly* materialized a view — callers holding compiled-plan
    /// caches should drop their entry for `xpath` so the next
    /// compilation sees the view.
    pub fn observe_result(&self, doc: DocId, xpath: &str, entries: &[NodeEntry]) -> bool {
        if !self.options.views || !self.options.set_semantics {
            return false;
        }
        let Ok(compiled) = self.compile(xpath) else {
            return false;
        };
        let mut compiled = compiled;
        opt::cleanup::cleanup(&mut compiled);
        let Some(pattern) = crate::views::extract(&compiled) else {
            return false;
        };
        let key = pattern.key();
        let generation = self.store.doc_generation(doc);
        if !self
            .views
            .observe(doc.0, generation, &key, self.options.view_admit_after)
        {
            return false;
        }
        let mut sorted = entries.to_vec();
        sorted.sort_by(|a, b| a.key.cmp(&b.key));
        sorted.dedup_by(|a, b| a.key == b.key);
        self.views.admit(
            doc.0,
            generation,
            key,
            xpath.to_string(),
            pattern,
            Arc::new(sorted),
            self.options.view_budget_bytes,
        )
    }

    /// Executes a plan against `doc`.
    pub fn execute_plan(&self, plan: &QueryPlan, doc: DocId) -> Result<Vec<NodeEntry>> {
        if self.options.views {
            if crate::views::plan_view(plan).is_some() {
                self.views.record_hit();
            } else {
                self.views.record_miss();
            }
        }
        self.record_fused(plan);
        let root_ctx = self.doc_entry(doc)?;
        let env = Env {
            plan,
            store: self.store(),
            root_ctx: &root_ctx,
            stats: None,
        };
        exec::run_from(env, None, self.options.set_semantics)
    }

    /// Compiles, (optionally) optimizes, and executes `xpath` on `doc`.
    pub fn query_doc(&self, doc: DocId, xpath: &str) -> Result<Vec<NodeEntry>> {
        let plan = self.compile(xpath)?;
        let plan = if self.options.optimize {
            self.optimize_plan(plan, doc)?.plan
        } else {
            plan
        };
        let out = self.execute_plan(&plan, doc)?;
        self.observe_result(doc, xpath, &out);
        Ok(out)
    }

    /// Evaluates `xpath` with the context node set to `ctx` (relative
    /// paths start there; absolute paths still start at the containing
    /// document's root). This is the §VII XQuery hook: "the context node
    /// could be provided from another XPath expression".
    pub fn query_from(&self, ctx: &NodeEntry, xpath: &str) -> Result<Vec<NodeEntry>> {
        let expr = parse(xpath)?;
        let plan = crate::plan::builder::build_relative_plan(&expr)?;
        let doc = self
            .store
            .document_of(&ctx.key)
            .ok_or_else(|| EngineError::Unsupported("context node is not stored".into()))?;
        let plan = if self.options.optimize {
            self.optimize_plan(plan, doc)?.plan
        } else {
            plan
        };
        let root_ctx = self.doc_entry(doc)?;
        let env = Env {
            plan: &plan,
            store: self.store(),
            root_ctx: &root_ctx,
            stats: None,
        };
        exec::run_from(env, Some(ctx), self.options.set_semantics)
    }

    /// Runs `xpath` against every loaded document, concatenating results
    /// in document order.
    pub fn query(&self, xpath: &str) -> Result<Vec<NodeEntry>> {
        if self.store.documents().is_empty() {
            return Err(EngineError::NoDocuments);
        }
        let mut out = Vec::new();
        for i in 0..self.store.documents().len() {
            out.extend(self.query_doc(DocId(i as u32), xpath)?);
        }
        Ok(out)
    }

    /// Opens a *streaming* cursor over `xpath` on `doc`: tuples are
    /// produced batch by batch (or one `next()` at a time) through the
    /// pipelined executor, without materializing the result set (the
    /// paper's §VII execution model as a public API). Tuples arrive in
    /// pipeline order; duplicate elimination and document-order sorting
    /// are the caller's choice.
    pub fn stream<'a>(&'a self, doc: DocId, xpath: &str) -> Result<QueryStream<'a>> {
        let plan = self.compile(xpath)?;
        let plan = if self.options.optimize {
            self.optimize_plan(plan, doc)?.plan
        } else {
            plan
        };
        let root_ctx = self.doc_entry(doc)?;
        QueryStream::new(self, plan, root_ctx)
    }

    /// Opens a streaming cursor over an already-compiled (and possibly
    /// cached) `plan` on `doc`. The serving layer executes plan-cache
    /// hits through this, pulling tuples so it can enforce per-query
    /// deadlines between pulls.
    pub fn stream_plan(&self, plan: QueryPlan, doc: DocId) -> Result<QueryStream<'_>> {
        let root_ctx = self.doc_entry(doc)?;
        QueryStream::new(self, plan, root_ctx)
    }

    /// Resolves the string values of a result set (element string-value,
    /// attribute/text value).
    pub fn string_values(&self, entries: &[NodeEntry]) -> Result<Vec<String>> {
        entries
            .iter()
            .map(|e| Ok(self.store.string_value(&e.key)?))
            .collect()
    }

    /// Resolves the names of a result set (empty string for unnamed
    /// nodes). A value-index tuple's name is recovered from its record.
    pub fn names_of(&self, entries: &[NodeEntry]) -> Result<Vec<String>> {
        entries
            .iter()
            .map(|e| {
                if let Some(n) = e.name {
                    return Ok(self.store.names().resolve(n).to_string());
                }
                match self.store.get(&e.key)? {
                    Some(rec) => Ok(rec
                        .name
                        .map(|n| self.store.names().resolve(n).to_string())
                        .unwrap_or_default()),
                    None => Ok(String::new()),
                }
            })
            .collect()
    }

    /// Shows default vs optimized plan, annotated with live costs
    /// (the paper's Figs 6–9 as text).
    pub fn explain(&self, doc: DocId, xpath: &str) -> Result<Explain> {
        let scope = self.doc_scope(doc)?;
        let mut default_plan = self.compile(xpath)?;
        // Clean-up is part of the default pipeline in the paper's figures.
        opt::cleanup::cleanup(&mut default_plan);
        let default_costs = estimate(&default_plan, self.store(), &scope)?;
        let outcome = self.optimize_plan(default_plan.clone(), doc)?;
        Ok(Explain {
            default_plan: display::render(&default_plan, Some(&default_costs)),
            optimized_plan: display::render(&outcome.plan, Some(&outcome.costs)),
            default_cost: default_costs.total(),
            optimized_cost: outcome.final_cost,
            applied: outcome.applied,
            iterations: outcome.iterations,
            opt_trace: outcome.opt_trace,
        })
    }

    /// `EXPLAIN ANALYZE`: compiles, (optionally) optimizes, and executes
    /// `xpath` on `doc` with per-operator instrumentation enabled,
    /// returning an [`Analysis`] holding the estimate-stamped plan, the
    /// optimizer's pass log, and the recorded actuals.
    ///
    /// Execution runs the same pipeline [`Engine::query_doc`] does.
    pub fn analyze_doc(&self, doc: DocId, xpath: &str) -> Result<Analysis> {
        let buffer_before = self.store().buffer_pool().stats();
        let start = std::time::Instant::now();
        let scope = self.doc_scope(doc)?;
        let mut plan = self.compile(xpath)?;
        opt::cleanup::cleanup(&mut plan);
        let default_costs = estimate(&plan, self.store(), &scope)?;
        let default_cost = default_costs.total();
        let (plan, final_cost, applied, opt_trace) = if self.options.optimize {
            let outcome = self.optimize_plan(plan, doc)?;
            (
                outcome.plan,
                outcome.final_cost,
                outcome.applied,
                outcome.opt_trace,
            )
        } else {
            // Default-plan analysis: stamp the default estimates and log
            // the two passes that did run (no rewriting).
            plan.set_estimates(default_costs.cards(plan.len(), self.store.tuples_per_page()));
            let opt_trace = crate::opt::OptTrace {
                events: vec![
                    crate::opt::OptEvent::Cleanup,
                    crate::opt::OptEvent::CostGathering {
                        total: default_cost,
                    },
                ],
            };
            (plan, default_cost, Vec::new(), opt_trace)
        };
        let stats = exec::stats::ExecStats::new(plan.len());
        let root_ctx = self.doc_entry(doc)?;
        let env = Env {
            plan: &plan,
            store: self.store(),
            root_ctx: &root_ctx,
            stats: Some(&stats),
        };
        let out = exec::run_from(env, None, self.options.set_semantics)?;
        let elapsed = start.elapsed();
        let actuals = stats.snapshot();
        let buffer_after = self.store().buffer_pool().stats();
        let (fused_chains, fused_steps) = crate::plan::fused_in_plan(&plan);
        let profile = QueryProfile {
            elapsed,
            buffer_hits: buffer_after.hits.saturating_sub(buffer_before.hits),
            buffer_misses: buffer_after.misses.saturating_sub(buffer_before.misses),
            batch_pins: buffer_after
                .batch_pins
                .saturating_sub(buffer_before.batch_pins),
            pins_saved: buffer_after
                .pins_saved
                .saturating_sub(buffer_before.pins_saved),
            fused_chains,
            fused_steps,
            decodes_v1: buffer_after
                .decodes_v1
                .saturating_sub(buffer_before.decodes_v1),
            decodes_v2: buffer_after
                .decodes_v2
                .saturating_sub(buffer_before.decodes_v2),
            rows: out.len() as u64,
            writer_wait: Duration::ZERO,
            operators: Some(actuals.clone()),
        };
        Ok(Analysis {
            xpath: xpath.to_string(),
            plan,
            optimized: self.options.optimize,
            default_cost,
            final_cost,
            applied,
            opt_trace,
            actuals,
            rows: out.len() as u64,
            profile,
        })
    }

    /// Answers `count(simple-path)` straight from the name index when the
    /// path is a bare descendant step — the paper's "count on the index
    /// level without going to data". Returns `None` for anything more
    /// complex.
    fn try_count_fast(&self, doc: DocId, expr: &Expr) -> Result<Option<f64>> {
        let Expr::FunctionCall(name, args) = expr else {
            return Ok(None);
        };
        if &**name != "count" || args.len() != 1 {
            return Ok(None);
        }
        let Ok(mut plan) = build_plan(&args[0]) else {
            return Ok(None);
        };
        opt::cleanup::cleanup(&mut plan);
        let path = plan.context_path();
        if path.len() != 1 {
            return Ok(None);
        }
        let Operator::Step {
            axis: axis @ (vamana_flex::Axis::Descendant | vamana_flex::Axis::DescendantOrSelf),
            test,
            context: None,
            predicates,
            ..
        } = plan.op(path[0])
        else {
            return Ok(None);
        };
        if !predicates.is_empty() || matches!(test, crate::plan::TestSpec::AnyNode) {
            return Ok(None);
        }
        let scope = self.doc_scope(doc)?;
        Ok(Some(
            crate::cost::count_nodetest(self.store(), *axis, test, &scope) as f64,
        ))
    }

    /// Evaluates an arbitrary XPath expression on `doc`, returning an
    /// XPath [`Value`] — supports scalar results like `count(//person)`.
    /// Simple `count(//name)` calls are answered index-only, without
    /// executing the path.
    pub fn evaluate(&self, doc: DocId, xpath: &str) -> Result<Value> {
        let expr = parse(xpath)?;
        if let Some(n) = self.try_count_fast(doc, &expr)? {
            return Ok(Value::Num(n));
        }
        match &expr {
            Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
                let nodes = self.query_doc(doc, xpath)?;
                Ok(Value::Nodes(nodes))
            }
            _ => {
                // Scalar expression: build it as a predicate-style tree and
                // evaluate once against the document node.
                let mut plan = QueryPlan::new(Vec::new(), crate::plan::OpId(0));
                let root = plan.push(Operator::Root { child: None });
                plan.set_root(root);
                let expr_id = crate::plan::builder::build_scalar(&mut plan, &expr)?;
                let root_ctx = self.doc_entry(doc)?;
                let env = Env {
                    plan: &plan,
                    store: self.store(),
                    root_ctx: &root_ctx,
                    stats: None,
                };
                exec::eval_expr(env, expr_id, &root_ctx, 1, 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people>
      <person id="p0"><name>Ann</name></person>
      <person id="p1"><name>Bob</name><watches><watch/><watch/></watches></person>
      <person id="p2"><name>Cyd</name><address><province>Vermont</province></address></person>
    </people></site>"#;

    fn engine() -> Engine {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        Engine::new(store)
    }

    #[test]
    fn query_returns_document_order_nodeset() {
        let e = engine();
        let r = e.query("//person").unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.windows(2).all(|w| w[0].key < w[1].key));
    }

    #[test]
    fn optimized_and_default_agree() {
        let mut e = engine();
        for q in [
            "//person/address",
            "//watches/watch/ancestor::person",
            "/descendant::name/parent::*/self::person/address",
            "//province[text()='Vermont']/ancestor::person",
            "//person[@id='p1']/watches/watch",
            "//name",
        ] {
            e.options_mut().optimize = true;
            let opt = e.query(q).unwrap();
            e.options_mut().optimize = false;
            let dflt = e.query(q).unwrap();
            assert_eq!(opt, dflt, "optimizer changed semantics of {q}");
        }
    }

    #[test]
    fn string_values_and_names_resolve() {
        let e = engine();
        let r = e.query("//name").unwrap();
        let vals = e.string_values(&r).unwrap();
        assert_eq!(vals, vec!["Ann", "Bob", "Cyd"]);
        let names = e.names_of(&r).unwrap();
        assert!(names.iter().all(|n| n == "name"));
    }

    #[test]
    fn explain_shows_costs_and_rules() {
        let e = engine();
        let doc = DocId(0);
        let ex = e.explain(doc, "//person/address").unwrap();
        assert!(ex.default_plan.contains("COUNT="), "{}", ex.default_plan);
        assert!(ex.optimized_cost <= ex.default_cost);
        assert!(!ex.applied.is_empty());
    }

    #[test]
    fn evaluate_scalar_expressions() {
        let e = engine();
        let doc = DocId(0);
        match e.evaluate(doc, "count(//person)").unwrap() {
            Value::Num(n) => assert_eq!(n, 3.0),
            other => panic!("wrong: {other:?}"),
        }
        match e.evaluate(doc, "1 + 2 * 3").unwrap() {
            Value::Num(n) => assert_eq!(n, 7.0),
            other => panic!("wrong: {other:?}"),
        }
        match e.evaluate(doc, "concat('a', 'b')").unwrap() {
            Value::Str(s) => assert_eq!(s, "ab"),
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn stream_yields_same_tuples_as_query() {
        let e = engine();
        let mut stream = e.stream(DocId(0), "//person/name").unwrap();
        let mut streamed = Vec::new();
        while let Some(t) = stream.next().unwrap() {
            streamed.push(t);
        }
        streamed.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(streamed, e.query("//person/name").unwrap());
        // Exhausted streams stay exhausted.
        assert!(stream.next().unwrap().is_none());
        // The stream's plan is the optimized one.
        assert!(!stream.plan().is_empty());
    }

    #[test]
    fn stream_is_lazy() {
        // Pulling one tuple from a large result must not touch the whole
        // store.
        let mut xml = String::from("<r>");
        for i in 0..20_000 {
            xml.push_str(&format!("<e>{i}</e>"));
        }
        xml.push_str("</r>");
        let mut store = MassStore::open_memory();
        store.load_xml("big", &xml).unwrap();
        let e = Engine::new(store);
        e.store().buffer_pool().reset_stats();
        let mut stream = e.stream(DocId(0), "//e").unwrap();
        assert!(stream.next().unwrap().is_some());
        let b = e.store().stats().buffer;
        let total = e.store().stats().pages as u64;
        assert!(
            b.hits + b.misses < total / 2,
            "first tuple touched {} of {} pages",
            b.hits + b.misses,
            total
        );
    }

    #[test]
    fn count_fast_path_matches_execution() {
        let e = engine();
        let doc = DocId(0);
        // Fast path fires for these...
        for (q, expect) in [
            ("count(//person)", 3.0),
            ("count(//watch)", 2.0),
            ("count(//@id)", 3.0),
        ] {
            match e.evaluate(doc, q).unwrap() {
                Value::Num(n) => assert_eq!(n, expect, "{q}"),
                other => panic!("{q}: {other:?}"),
            }
        }
        // ...and complex arguments fall back to execution with the same
        // answers.
        match e.evaluate(doc, "count(//person[address])").unwrap() {
            Value::Num(n) => assert_eq!(n, 1.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_documents_is_an_error() {
        let e = Engine::new(MassStore::open_memory());
        assert!(matches!(e.query("//a"), Err(EngineError::NoDocuments)));
    }

    #[test]
    fn views_answer_repeated_queries_from_cache() {
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 2;
        let doc = DocId(0);
        let cold = e.query_doc(doc, "//name").unwrap();
        let warm = e.query_doc(doc, "//name").unwrap(); // second sighting admits
        assert_eq!(e.views().stats().views, 1);
        let hot = e.query_doc(doc, "//name").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(cold, hot);
        let stats = e.views().stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.misses >= 2, "{stats:?}");
        let outcome = e.optimize_plan(e.compile("//name").unwrap(), doc).unwrap();
        assert_eq!(crate::views::plan_view(&outcome.plan), Some("//name"));
    }

    #[test]
    fn strict_containment_rewrites_match_direct_evaluation() {
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 1;
        e.options_mut().view_greedy = true;
        let doc = DocId(0);
        // Materialize `//person`, then answer narrower queries from it.
        assert_eq!(e.query_doc(doc, "//person").unwrap().len(), 3);
        let direct = engine();
        for q in [
            "//person",
            "//person[address]",
            "//person[watches]",
            "//person[address/province]",
            "//person/name",
        ] {
            // Earlier queries in the loop self-materialize (admit_after
            // is 1), so a later query may pick a tighter view than
            // `//person` — any view is fine, correctness is the point.
            let outcome = e.optimize_plan(e.compile(q).unwrap(), doc).unwrap();
            assert!(
                crate::views::plan_view(&outcome.plan).is_some(),
                "no view rewrite for {q}"
            );
            assert_eq!(
                e.query_doc(doc, q).unwrap(),
                direct.query_doc(doc, q).unwrap(),
                "view rewrite changed semantics of {q}"
            );
        }
    }

    #[test]
    fn update_invalidates_views() {
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        assert_eq!(e.query_doc(doc, "//name").unwrap().len(), 3);
        assert_eq!(e.views().stats().views, 1);
        e.apply_update(
            doc,
            &UpdateOp::Insert {
                target: "//people".into(),
                fragment: "<person id='p3'><name>Dee</name></person>".into(),
            },
        )
        .unwrap();
        let stats = e.views().stats();
        assert_eq!(stats.views, 0, "{stats:?}");
        assert!(stats.evictions >= 1, "{stats:?}");
        assert_eq!(e.query_doc(doc, "//name").unwrap().len(), 4);
    }

    #[test]
    fn analyze_marks_view_answered_queries() {
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        e.query_doc(doc, "//name").unwrap();
        let a = e.analyze_doc(doc, "//name").unwrap();
        assert_eq!(a.view(), Some("//name"));
        assert_eq!(a.rows, 3);
        assert!(
            a.render().contains("answered from view: //name"),
            "{}",
            a.render()
        );
        assert!(a.render_json().contains("\"view\":\"//name\""));
        assert!(a
            .opt_trace
            .events
            .iter()
            .any(|ev| matches!(ev, OptEvent::ViewRewrite { applied: true, .. })));
    }

    #[test]
    fn view_trace_records_rejections() {
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 1;
        let doc = DocId(0);
        e.query_doc(doc, "//watch").unwrap();
        // A fragment query no resident view contains.
        let outcome = e
            .optimize_plan(e.compile("//address").unwrap(), doc)
            .unwrap();
        assert!(outcome.opt_trace.events.iter().any(|ev| matches!(
            ev,
            OptEvent::ViewRewrite {
                applied: false,
                reason: "containment not proven",
                ..
            }
        )));
        // A query outside the decidable fragment is never rewritten.
        let outcome = e
            .optimize_plan(e.compile("//person[1]").unwrap(), doc)
            .unwrap();
        assert!(outcome.opt_trace.events.iter().any(|ev| matches!(
            ev,
            OptEvent::ViewRewrite {
                applied: false,
                reason: "query outside the containment fragment",
                ..
            }
        )));
    }

    #[test]
    fn fuse_trace_records_decisions() {
        let mut e = engine();
        e.options_mut().fuse = true;
        let doc = DocId(0);
        // `//person/address` resolves through the name index in two
        // cheap probes; the fused scan must sweep the whole person
        // envelope — the model prices both and declines.
        let outcome = e
            .optimize_plan(e.compile("//person/address").unwrap(), doc)
            .unwrap();
        assert!(
            outcome.opt_trace.events.iter().any(|ev| matches!(
                ev,
                OptEvent::Fuse {
                    applied: false,
                    total_after: Some(_),
                    ..
                }
            )),
            "cost model should decline fusing an index-resolvable chain: {}",
            outcome.opt_trace.render()
        );
        // Chains outside the fragment trace the extraction failure.
        let outcome = e
            .optimize_plan(e.compile("//person[1]/name").unwrap(), doc)
            .unwrap();
        assert!(outcome.opt_trace.events.iter().any(|ev| matches!(
            ev,
            OptEvent::Fuse {
                applied: false,
                total_after: None,
                ..
            }
        )));
    }

    #[test]
    fn forced_fusion_matches_unfused_results() {
        let mut e = engine();
        let doc = DocId(0);
        let queries = [
            "/site/*//*",
            "//person/name",
            "//people//*",
            "//person[watches/watch]/name",
            "/site/people/person//*",
        ];
        let plain: Vec<_> = queries
            .iter()
            .map(|q| e.query_doc(doc, q).unwrap())
            .collect();
        e.options_mut().fuse = true;
        e.options_mut().fuse_force = true;
        for (q, want) in queries.iter().zip(&plain) {
            assert_eq!(
                &e.query_doc(doc, q).unwrap(),
                want,
                "fusion changed semantics of {q}"
            );
        }
        // The fused plan really ran fused operators, and the analysis
        // surfaces them.
        let a = e.analyze_doc(doc, "/site/*//*").unwrap();
        assert!(a.profile.fused_chains >= 1, "{}", a.render());
        assert!(a.render().contains("FusedScan"), "{}", a.render());
        assert!(
            a.render().contains("fused: 1 chain (2 steps collapsed)"),
            "{}",
            a.render()
        );
        assert!(a.render_json().contains("\"fused_chains\":1"));
        let (chains, steps) = e.fused_stats();
        assert!(chains >= 1 && steps >= 2);
    }

    #[test]
    fn fusion_composes_with_view_rewrite() {
        let plain = engine();
        let doc = DocId(0);
        let want = plain.query_doc(doc, "//person/*//*").unwrap();
        let mut e = engine();
        e.options_mut().views = true;
        e.options_mut().view_admit_after = 1;
        e.options_mut().view_greedy = true;
        e.options_mut().fuse = true;
        e.options_mut().fuse_force = true;
        // Materialize `//person`, then answer a longer query from it:
        // the residual chain past the view scan is scan-bound and fuses.
        // (Analyze before re-querying — a second sighting would admit
        // the long query's own result as an equivalent view.)
        e.query_doc(doc, "//person").unwrap();
        let a = e.analyze_doc(doc, "//person/*//*").unwrap();
        assert_eq!(a.view(), Some("//person"), "{}", a.render());
        assert!(a.profile.fused_chains >= 1, "{}", a.render());
        assert_eq!(e.query_doc(doc, "//person/*//*").unwrap(), want);
    }

    #[test]
    fn multiple_documents_queried_in_order() {
        let mut store = MassStore::open_memory();
        store.load_xml("a", "<r><x>1</x></r>").unwrap();
        store.load_xml("b", "<r><x>2</x><x>3</x></r>").unwrap();
        let e = Engine::new(store);
        let r = e.query("//x").unwrap();
        assert_eq!(e.string_values(&r).unwrap(), vec!["1", "2", "3"]);
        let r = e.query_doc(DocId(1), "//x").unwrap();
        assert_eq!(r.len(), 2);
    }
}
