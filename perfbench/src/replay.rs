//! The traced run: the same seeded request stream replayed in-process,
//! on one thread, over a store built the same way as the server's, with
//! a span around each call into a layer.
//!
//! A read follows the server's query path step for step: plan-cache
//! lookup, then on a miss `vamana_xpath::parse`, `build_plan` (the rest
//! of `Engine::compile`) and `Engine::optimize_plan`; then `stream_plan`
//! drained with `next_batch`, and `render_rows` with the shipped row
//! limit and value width. Because one request runs at a time, buffer
//! pool, fusion and morsel counter deltas around a request are exact.

use crate::measure::{write_op, Tally};
use crate::trace::Tracer;
use crate::workload::ReadMix;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vamana_core::{build_plan, exec::BATCH_SIZE, qerror, DocId, Engine, EngineOptions, UpdateOp};
use vamana_mass::{buffer::BufferPool, BufferStats, MassStore};
use vamana_server::{render_rows, PlanCache, RenderOptions, ServerConfig};

/// What the replay runs.
pub struct ReplayPlan<'a> {
    /// The generated document.
    pub xml: &'a str,
    /// The workload's read mix.
    pub mix: &'a ReadMix,
    /// Benchmark seed; the streams are the socket run's.
    pub seed: u64,
    /// Reader connections whose streams are interleaved.
    pub readers: usize,
    /// Untimed warm-up before the traced window.
    pub warmup: Duration,
    /// Length of the traced window.
    pub window: Duration,
    /// `Some((write period, checkpoint period))` for an interleaved
    /// writer; `None` runs `probe_ops` writes after the window instead.
    pub writer: Option<(Duration, Duration)>,
    /// Writes of the post-window probe.
    pub probe_ops: u64,
    /// Probe writes after its checkpoint.
    pub probe_tail: u64,
    /// Where the durable store is created.
    pub store_path: &'a Path,
}

/// Counters summed over the traced window.
#[derive(Debug, Default, Clone)]
pub struct ReplayCounters {
    /// Reads completed in the window.
    pub reads: u64,
    /// Result rows over those reads.
    pub rows: u64,
    /// `optimize_plan` calls and the rules they applied.
    pub optimizes: u64,
    /// Rules applied over every `optimize_plan` call.
    pub rules_applied: u64,
    /// Buffer-pool deltas summed over the reads.
    pub pool: BufferStats,
    /// Fused chains in executed plans (`Engine::fused_stats` delta).
    pub fused_chains: u64,
    /// Morsels fanned out (`Engine::parallel_stats` delta).
    pub par_morsels: u64,
    /// Inserts and deletes applied.
    pub writes: u64,
    /// WAL fsyncs and records over those writes.
    pub wal_fsyncs: u64,
    /// WAL records appended by those writes.
    pub wal_records: u64,
}

/// The replay's results.
pub struct Replay {
    /// Every span, warm-up and set-up included.
    pub tracer: Tracer,
    /// First request id of the traced window.
    pub window_from: u64,
    /// Counters over the traced window (plus the probe's writes).
    pub counters: ReplayCounters,
    /// Seconds the traced window's reads took.
    pub window_secs: f64,
    /// `load_xml` wall time.
    pub load_ms: f64,
    /// Store pages and tuples per page after loading.
    pub pages: u32,
    /// Tuples per page after loading.
    pub tuples_per_page: f64,
    /// Operator q-errors from `Engine::analyze_doc` over the distinct
    /// queries the window read (infinite ones excluded).
    pub qerrors: Vec<f64>,
    /// Operators whose estimate or actual was zero while the other was
    /// not (infinite q-error).
    pub qerror_infinite: u64,
    /// Oracle mismatches and errors.
    pub tally: Tally,
}

const DOC: DocId = DocId(0);

/// Distinct queries `EXPLAIN ANALYZE`d for the q-error summary.
const QERROR_QUERIES: usize = 64;

/// Runs the traced replay.
pub fn replay(plan: &ReplayPlan<'_>) -> Result<Replay, String> {
    let mut tracer = Tracer::default();
    let store = MassStore::create_durable(
        plan.store_path,
        BufferPool::DEFAULT_CAPACITY,
        crate::serve::FSYNC,
    )
    .map_err(|e| format!("create replay store: {e}"))?;
    let mut engine = Engine::with_options(store, EngineOptions::default());
    tracer.next_request();
    tracer
        .span("mass.load", || engine.load_xml("auction", plan.xml))
        .map_err(|e| format!("replay load: {e}"))?;
    let load_ms = tracer.self_times(0)["mass.load"].mean_us() / 1e3;
    let stats = engine.store().stats();
    let config = ServerConfig::default();
    let render = RenderOptions {
        limit: config.default_limit,
        value_width: config.value_width,
    };
    let cache = PlanCache::new(config.plan_cache_size);
    let mut streams: Vec<_> = (0..plan.readers.max(1))
        .map(|c| plan.mix.stream(plan.seed, c))
        .collect();
    let mut counters = ReplayCounters::default();
    let mut tally = Tally::default();
    let mut seen = Vec::new();
    let start = Instant::now();
    let window_start = start + plan.warmup;
    let end = window_start + plan.window;
    let mut window_from = None;
    let mut next_write = 0u64;
    let mut next_checkpoint = plan.writer.map(|(_, every)| start + every);
    let mut turn = 0usize;
    while Instant::now() < end {
        if window_from.is_none() && Instant::now() >= window_start {
            window_from = Some(tracer.request() + 1);
            counters = ReplayCounters::default();
        }
        if let Some((period, every)) = plan.writer {
            while start + period * next_write as u32 <= Instant::now() {
                if let Some(at) = next_checkpoint.filter(|at| *at <= Instant::now()) {
                    next_checkpoint = Some(at + every);
                    traced_checkpoint(&mut engine, &mut tracer, &mut tally);
                }
                traced_write(
                    &mut engine,
                    &cache,
                    &mut tracer,
                    next_write,
                    &mut counters,
                    &mut tally,
                );
                next_write += 1;
            }
        }
        let readers = streams.len();
        let index = streams[turn % readers].next_index();
        turn += 1;
        let query = &plan.mix.queries[index];
        tally.attempted += 1;
        match traced_read(
            &engine,
            &cache,
            &mut tracer,
            &query.xpath,
            &render,
            &mut counters,
        ) {
            Ok(rows) if rows == query.expected => {}
            Ok(rows) => tally.fail(format!(
                "wrong count for {} in replay: engine {rows} oracle {}",
                query.xpath, query.expected
            )),
            Err(e) => tally.fail(format!("replay {}: {e}", query.xpath)),
        }
        if window_from.is_some() && seen.len() < QERROR_QUERIES && !seen.contains(&index) {
            seen.push(index);
        }
    }
    let window_secs = end.saturating_duration_since(window_start).as_secs_f64();
    if plan.writer.is_none() {
        for i in 0..plan.probe_ops {
            if i == plan.probe_ops - plan.probe_tail {
                traced_checkpoint(&mut engine, &mut tracer, &mut tally);
            }
            traced_write(
                &mut engine,
                &cache,
                &mut tracer,
                i,
                &mut counters,
                &mut tally,
            );
        }
    }
    let (qerrors, qerror_infinite) = qerrors(&engine, plan.mix, &seen)?;
    Ok(Replay {
        tracer,
        window_from: window_from.unwrap_or(u64::MAX),
        counters,
        window_secs,
        load_ms,
        pages: stats.pages,
        tuples_per_page: stats.tuples_per_page(),
        qerrors,
        qerror_infinite,
        tally,
    })
}

/// One read along the server's query path; returns the result's
/// cardinality.
fn traced_read(
    engine: &Engine,
    cache: &PlanCache,
    tracer: &mut Tracer,
    xpath: &str,
    render: &RenderOptions,
    counters: &mut ReplayCounters,
) -> Result<u64, String> {
    tracer.next_request();
    let root = tracer.open("request");
    let pool_before = engine.store().buffer_pool().stats();
    let (fused_before, _) = engine.fused_stats();
    let par_before = engine.parallel_stats().morsels;
    let generation = engine.store().doc_generation(DOC);
    let plan = match cache.get(xpath, DOC, generation) {
        Some(plan) => plan,
        None => {
            let expr = tracer
                .span("xpath.parse", || vamana_xpath::parse(xpath))
                .map_err(|e| e.to_string())?;
            let compiled = tracer
                .span("core.compile", || build_plan(&expr))
                .map_err(|e| e.to_string())?;
            let optimized = tracer
                .span("core.optimize", || engine.optimize_plan(compiled, DOC))
                .map_err(|e| e.to_string())?;
            counters.optimizes += 1;
            counters.rules_applied += optimized.applied.len() as u64;
            let plan = Arc::new(optimized.plan);
            cache.insert(xpath, DOC, generation, Arc::clone(&plan));
            plan
        }
    };
    let mut rows = Vec::new();
    tracer
        .span("core.execute", || {
            let mut stream = engine.stream_plan((*plan).clone(), DOC)?;
            while stream.next_batch(&mut rows, BATCH_SIZE)? > 0 {}
            Ok::<_, vamana_core::EngineError>(())
        })
        .map_err(|e| e.to_string())?;
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows.dedup_by(|a, b| a.key == b.key);
    let rendered = tracer
        .span("server.render", || render_rows(engine, &rows, render))
        .map_err(|e| e.to_string())?;
    tracer.close(root);
    let pool = engine.store().buffer_pool().stats();
    counters.reads += 1;
    counters.rows += rendered.total as u64;
    add_pool_delta(&mut counters.pool, &pool_before, &pool);
    counters.fused_chains += engine.fused_stats().0.saturating_sub(fused_before);
    counters.par_morsels += engine.parallel_stats().morsels.saturating_sub(par_before);
    Ok(rendered.total as u64)
}

fn add_pool_delta(sum: &mut BufferStats, before: &BufferStats, after: &BufferStats) {
    sum.hits += after.hits.saturating_sub(before.hits);
    sum.misses += after.misses.saturating_sub(before.misses);
    sum.pins_saved += after.pins_saved.saturating_sub(before.pins_saved);
    sum.decodes_v1 += after.decodes_v1.saturating_sub(before.decodes_v1);
    sum.decodes_v2 += after.decodes_v2.saturating_sub(before.decodes_v2);
}

/// Write `i` through `Engine::apply_update`, as the server's update path
/// does (then purging the document's stale cached plans).
fn traced_write(
    engine: &mut Engine,
    cache: &PlanCache,
    tracer: &mut Tracer,
    i: u64,
    counters: &mut ReplayCounters,
    tally: &mut Tally,
) {
    let op = write_op(i);
    let name = match op {
        UpdateOp::Insert { .. } => "core.insert",
        UpdateOp::Delete { .. } => "core.delete",
    };
    let wal_before = engine.store().wal_stats();
    tracer.next_request();
    tally.attempted += 1;
    match tracer.span(name, || engine.apply_update(DOC, &op)) {
        Ok(out) if out.inserted + out.deleted > 0 => {
            cache.purge_doc(DOC, out.doc_generation);
            let wal = engine.store().wal_stats();
            counters.writes += 1;
            counters.wal_fsyncs += wal.fsyncs.saturating_sub(wal_before.fsyncs);
            counters.wal_records += wal.records.saturating_sub(wal_before.records);
        }
        Ok(_) => tally.fail(format!("wrong update result in replay for write {i}")),
        Err(e) => tally.fail(format!("replay write {i}: {e}")),
    }
}

fn traced_checkpoint(engine: &mut Engine, tracer: &mut Tracer, tally: &mut Tally) {
    tracer.next_request();
    tally.attempted += 1;
    if let Err(e) = tracer.span("mass.checkpoint", || engine.checkpoint()) {
        tally.fail(format!("replay checkpoint: {e}"));
    }
}

/// Per-operator q-errors of the queries at `indexes`, plus the count of
/// infinite ones.
fn qerrors(engine: &Engine, mix: &ReadMix, indexes: &[usize]) -> Result<(Vec<f64>, u64), String> {
    let mut finite = Vec::new();
    let mut infinite = 0;
    for &i in indexes {
        let xpath = &mix.queries[i].xpath;
        let analysis = engine
            .analyze_doc(DOC, xpath)
            .map_err(|e| format!("analyze {xpath}: {e}"))?;
        for op in analysis.plan.live_ops() {
            let (Some(est), Some(act)) = (analysis.plan.estimate(op), analysis.actuals.op(op))
            else {
                continue;
            };
            let q = qerror(est.output, act.rows);
            if q.is_finite() {
                finite.push(q);
            } else {
                infinite += 1;
            }
        }
    }
    Ok((finite, infinite))
}
