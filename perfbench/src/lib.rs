//! Socket-level benchmark of the VAMANA server.
//!
//! One run starts the server in its own process over a fresh durable
//! file-backed store (every setting at its shipped default), loads a
//! seeded XMark document into it, and drives one workload at it over
//! loopback TCP: `lookup-resident`, `scan-cold` or `mixed-rw` (see
//! [`workload`] and `README.md`). Every reply is checked against the
//! DOM oracle. An untraced run reports the end-to-end metrics; a traced
//! run (`--trace 1`) repeats the socket run for its server-side
//! counters, then replays the same request stream in-process with spans
//! around each layer and reports the per-layer metrics.

mod client;
mod measure;
mod replay;
pub mod report;
pub mod serve;
mod trace;
pub mod workload;

use client::{parse_query_ok, Conn, ServerProc, IGNORED_ENV};
use measure::{Lockstep, ReadSample, Schedule, Tally, WriteLog};
use report::{
    median, millis, percentile, slotted_percentile, slotted_rate, JsonObject, END_TO_END, PER_LAYER,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use vamana_baseline::dom::DomEngine;
use vamana_mass::buffer::BufferPool;
use workload::{ReadMix, Workload};

/// `mixed-rw` writer: one insert or delete every 100 ms (10 writes/s).
/// Each write holds the engine write lock through its fsync, so on a
/// host with bursty I/O a faster writer makes the reader's numbers
/// swing with the device rather than with the program.
const WRITE_PERIOD: Duration = Duration::from_millis(100);
/// `mixed-rw` checkpoint period.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(2);
/// Writes of the probe every workload runs after its read window (see
/// [`measure::run_write_probe`]). Every store therefore stops with the
/// same WAL suffix for `reopen_s` to replay, and the read-only workloads
/// get the write path's service time on a quiet server.
const PROBE_OPS: u64 = 2_000;
/// Probe writes after its checkpoint: the WAL suffix a reopen replays.
const PROBE_TAIL: u64 = 400;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload to drive.
    pub workload: Workload,
    /// Seed of the document and the request streams.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether to add the traced per-layer replay.
    pub trace: bool,
    /// Document size in MB instead of the workload's (smoke tests).
    pub doc_mb: Option<f64>,
    /// The benchmark executable, started as `serve` for the server.
    pub server_exe: PathBuf,
    /// Scratch directory for documents and stores; removed afterwards.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// A run's inputs, made from the seed before anything is timed.
pub struct Prepared {
    /// The settings.
    pub options: Options,
    /// The generated XMark text.
    pub xml: String,
    /// Where `xml` is written for the server's `LOAD`.
    pub xml_path: PathBuf,
    /// The read mix with the DOM oracle's expected counts.
    pub mix: ReadMix,
}

/// A run's result.
pub struct Outcome {
    /// Whether every operation and check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` of each reported metric.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Everything else worth keeping, as one JSON object.
    pub detail: JsonObject,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut metrics = JsonObject::default();
        for (name, value, unit) in &self.metrics {
            let mut m = JsonObject::default();
            m.num("value", *value).str("unit", unit);
            metrics.obj(name, &m);
        }
        let mut out = JsonObject::default();
        out.bool("correct", self.correct)
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .obj("metrics", &metrics);
        out.render()
    }
}

/// Generates the document, writes it for the server, and builds the
/// read mix with its oracle counts.
pub fn prepare(options: Options) -> Result<Prepared, String> {
    std::fs::create_dir_all(&options.work_dir)
        .map_err(|e| format!("create {}: {e}", options.work_dir.display()))?;
    let mb = options.doc_mb.unwrap_or(options.workload.doc_mb());
    let mut config = vamana_xmark::scale::config_for_megabytes(mb);
    config.seed = options.seed;
    let mut bytes = Vec::new();
    vamana_xmark::generate_to(&config, &mut bytes).map_err(|e| format!("generate: {e}"))?;
    let xml = String::from_utf8(bytes).map_err(|e| format!("generator output: {e}"))?;
    let xml_path = options.work_dir.join("auction.xml");
    std::fs::write(&xml_path, &xml).map_err(|e| format!("write {}: {e}", xml_path.display()))?;
    let dom = DomEngine::from_xml(&xml).map_err(|e| format!("oracle parse: {e}"))?;
    let mix = ReadMix::build(options.workload, &dom, options.seed)?;
    Ok(Prepared {
        options,
        xml,
        xml_path,
        mix,
    })
}

/// Runs the benchmark on prepared inputs and removes its scratch
/// directory afterwards.
pub fn run(prepared: &Prepared) -> Result<Outcome, String> {
    let result = run_inner(prepared);
    let work_dir = &prepared.options.work_dir;
    let _ = std::fs::remove_dir_all(work_dir);
    // The parent is shared with concurrent runs: removed only when empty.
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    result
}

/// The socket run's server-side view: `STATS` at the start of the
/// window, at its end, and after the write probe.
struct StatsWindow {
    start: HashMap<String, String>,
    end: HashMap<String, String>,
    last: HashMap<String, String>,
}

impl StatsWindow {
    fn get(stats: &HashMap<String, String>, key: &str) -> f64 {
        stats.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }

    /// Change of counter `key` over the measured window.
    fn window(&self, key: &str) -> f64 {
        Self::get(&self.end, key) - Self::get(&self.start, key)
    }

    /// Change of counter `key` from the window's start to the end of
    /// the run.
    fn run(&self, key: &str) -> f64 {
        Self::get(&self.last, key) - Self::get(&self.start, key)
    }
}

fn run_inner(prepared: &Prepared) -> Result<Outcome, String> {
    let opts = &prepared.options;
    let workload = opts.workload;
    let mix = &prepared.mix;
    let first_query = &mix.queries[mix.stream(opts.seed, 0).next_index()];
    let mut tally = Tally::default();

    // Set-up, several times: spawn the server over a fresh store, LOAD
    // the document, and wait for the first query's answer. The last
    // server stays up for the measured window. Every other one gets a
    // short write probe (a checkpoint, then the same WAL suffix the run
    // leaves) and is reopened at once, so that `reopen_s` samples the
    // host at the start of the run as well as at its end: its speed
    // shifts for ten seconds and more at a time, and reopening the
    // 32 MB store takes three. The small document's reopen takes about
    // 0.1 s and varies by a third from one call to the next, so the
    // final store is reopened more often there.
    let (repeats, final_reopens) = if opts.doc_mb.unwrap_or(workload.doc_mb()) > 8.0 {
        (3, 2)
    } else {
        (7, 9)
    };
    let mut setup_s = Vec::new();
    let mut reopen_s = Vec::new();
    let mut server = None;
    let mut store_path = PathBuf::new();
    for k in 0..repeats {
        store_path = opts.work_dir.join(format!("store-{k}.db"));
        let began = Instant::now();
        let proc = ServerProc::start(&opts.server_exe, &store_path)?;
        let mut conn = Conn::connect(proc.addr).map_err(|e| format!("connect: {e}"))?;
        let load = format!("LOAD auction {}", prepared.xml_path.display());
        let reply = conn.call(&load).map_err(|e| format!("LOAD: {e}"))?;
        if !reply.is_ok() {
            return Err(format!("LOAD: {}", reply.head));
        }
        let reply = conn
            .call(&format!("QUERY {}", first_query.xpath))
            .map_err(|e| format!("first query: {e}"))?;
        setup_s.push(began.elapsed().as_secs_f64());
        tally.attempted += 1;
        match parse_query_ok(&reply.head) {
            Some(ok) if ok.rows == first_query.expected => {}
            _ => tally.fail(format!(
                "wrong first answer for {}: {} (oracle {})",
                first_query.xpath, reply.head, first_query.expected
            )),
        }
        if k + 1 < repeats {
            let probe = measure::run_write_probe(proc.addr, 0, PROBE_TAIL, PROBE_TAIL);
            tally.merge(&probe.tally);
            proc.stop();
            reopen_s.push(reopen_and_check(
                &opts.server_exe,
                &store_path,
                &[&probe],
                &mut tally,
            )?);
            remove_store(&store_path);
        } else {
            server = Some(proc);
        }
    }
    let server = server.expect("at least one set-up ran");

    // The measured window, after a warm-up that fills the plan cache and
    // brings the buffer pool to its steady state.
    let window = Duration::from_secs_f64(opts.seconds);
    let warmup = Duration::from_secs_f64((opts.seconds * 0.15).min(3.0));
    let mut control = Conn::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    let start = Instant::now();
    let window_start = start + warmup;
    let end = window_start + window;
    let lockstep = workload
        .lockstep()
        .then(|| Lockstep::new(workload.readers()));
    let lockstep = lockstep.as_ref();
    let (readers, writer, stats_start, stats_end) = std::thread::scope(|s| {
        let readers: Vec<_> = (0..workload.readers())
            .map(|c| {
                s.spawn(move || {
                    measure::run_reader(server.addr, mix, opts.seed, c, window_start, end, lockstep)
                })
            })
            .collect();
        let writer = workload.has_writer().then(|| {
            let schedule = Schedule {
                first: 0,
                start,
                period: WRITE_PERIOD,
                checkpoint_every: CHECKPOINT_EVERY,
                until: end,
                measure_from: window_start,
            };
            s.spawn(move || measure::run_writer(server.addr, &schedule))
        });
        std::thread::sleep(window_start.saturating_duration_since(Instant::now()));
        let stats_start = control.stats();
        std::thread::sleep(end.saturating_duration_since(Instant::now()));
        let readers: Vec<_> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        let writer = writer.map(|h| h.join().expect("writer thread"));
        let stats_end = control.stats();
        (readers, writer, stats_start, stats_end)
    });
    let measured = end.saturating_duration_since(window_start).as_secs_f64();
    let probe_start = Instant::now();
    let probe = measure::run_write_probe(
        server.addr,
        writer.as_ref().map_or(0, |w| w.next_write),
        PROBE_OPS,
        PROBE_TAIL,
    );
    let probe_span = probe_start.elapsed();
    let stats = StatsWindow {
        start: stats_start?,
        end: stats_end?,
        last: control.stats()?,
    };
    let rss_mb = server.peak_rss_mb()?;
    let server_config = server.config.clone();
    drop(control);
    server.stop();

    let mut samples: Vec<ReadSample> = Vec::new();
    for r in &readers {
        tally.merge(&r.tally);
        samples.extend(&r.samples);
    }
    let write_logs: Vec<&WriteLog> = writer.iter().chain([&probe]).collect();
    for log in &write_logs {
        tally.merge(&log.tally);
    }
    // Write latencies come from the `mixed-rw` writer where there is
    // one, else from the probe.
    let (writes, write_span) = match &writer {
        Some(w) => (w, window),
        None => (&probe, probe_span),
    };

    for _ in 0..final_reopens {
        reopen_s.push(reopen_and_check(
            &opts.server_exe,
            &store_path,
            &write_logs,
            &mut tally,
        )?);
    }

    let xml_bytes = prepared.xml.len() as f64;
    let disk_bytes = StatsWindow::get(&stats.last, "store_disk_bytes");
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let reads: Vec<(Duration, f64)> = samples.iter().map(|s| (s.at, ms(s.latency))).collect();
    let write_points: Vec<(Duration, f64)> = writes
        .latencies
        .iter()
        .map(|(at, l)| (*at, ms(*l)))
        .collect();
    let read_qps = slotted_rate(&reads, window);
    let (read_p50, read_p50_slots) = slotted_percentile(&reads, window, 50.0);
    let (read_p95, read_p95_slots) = slotted_percentile(&reads, window, 95.0);
    let (write_p50, write_p50_slots) = slotted_percentile(&write_points, write_span, 50.0);
    let (write_p95, write_p95_slots) = slotted_percentile(&write_points, write_span, 95.0);
    let mut all_read_ms: Vec<f64> = reads.iter().map(|r| r.1).collect();
    let plan_cache_hits = stats.window("plan_cache_hits");
    let plan_cache_misses = stats.window("plan_cache_misses");
    let plan_cache_hit_ratio = plan_cache_hits / (plan_cache_hits + plan_cache_misses).max(1.0);

    let mut detail = JsonObject::default();
    detail
        .str("workload", workload.name())
        .int("seed", opts.seed)
        .num("seconds", measured)
        .num("warmup_s", warmup.as_secs_f64())
        .obj(
            "config",
            &effective_config(opts, &server_config, &stats.last),
        )
        .obj("document", &document_detail(prepared, &stats))
        .num(
            "error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        )
        .obj("failures", &failure_detail(&tally))
        .num("write_p50_ms", write_p50)
        .num("write_p95_ms", write_p95)
        .obj("samples", &{
            let mut o = JsonObject::default();
            o.int("reads", samples.len() as u64)
                .int("writes", write_points.len() as u64)
                .int(
                    "checkpoints",
                    write_logs.iter().map(|l| l.checkpoints.len() as u64).sum(),
                )
                .int("setups", setup_s.len() as u64)
                .int("reopens", reopen_s.len() as u64);
            o
        })
        .obj("writer", &writer_detail(writes, workload))
        .obj("plan_cache", &{
            let mut o = JsonObject::default();
            o.num("hits", plan_cache_hits)
                .num("misses", plan_cache_misses)
                .num("hit_ratio", plan_cache_hit_ratio);
            o
        })
        .obj("pool_window", &{
            let mut o = JsonObject::default();
            o.num("hits", stats.window("pool_buffer_hits"))
                .num("misses", stats.window("pool_buffer_misses"));
            o
        })
        .obj("slots", &{
            let fmt = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>();
            let mut o = JsonObject::default();
            o.strs("read_p50_ms", &fmt(&read_p50_slots))
                .strs("read_p95_ms", &fmt(&read_p95_slots))
                .strs("write_p50_ms", &fmt(&write_p50_slots))
                .strs("write_p95_ms", &fmt(&write_p95_slots));
            o
        })
        .obj("whole_window", &{
            let mut o = JsonObject::default();
            o.num("read_qps", samples.len() as f64 / measured)
                .num("read_p50_ms", percentile(&mut all_read_ms, 50.0))
                .num("read_p95_ms", percentile(&mut all_read_ms, 95.0));
            o
        })
        .obj("read_types", &read_types(mix, &samples))
        .num("read_p50_band_purity", band_purity(mix, &samples))
        .strs(
            "setup_s_each",
            &setup_s
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>(),
        )
        .strs(
            "reopen_s_each",
            &reopen_s
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>(),
        );

    let mut metrics = Vec::new();
    if !opts.trace {
        let values = [
            median(&mut setup_s),
            read_qps,
            read_p50,
            read_p95,
            disk_bytes / xml_bytes,
            rss_mb,
            median(&mut reopen_s),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((*name, value, *unit));
        }
    } else {
        let replay_store = opts.work_dir.join("replay.db");
        let replay = replay::replay(&replay::ReplayPlan {
            xml: &prepared.xml,
            mix,
            seed: opts.seed,
            readers: workload.readers(),
            warmup,
            window,
            writer: workload
                .has_writer()
                .then_some((WRITE_PERIOD, CHECKPOINT_EVERY)),
            probe_ops: PROBE_OPS,
            probe_tail: PROBE_TAIL,
            store_path: &replay_store,
        })?;
        tally.merge(&replay.tally);
        let trace_path =
            opts.trace_dir
                .join(format!("{}-seed{}-spans.tsv", workload.name(), opts.seed));
        std::fs::create_dir_all(&opts.trace_dir)
            .and_then(|()| replay.tracer.write_tsv(&trace_path))
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        detail.str("trace_file", &trace_path.display().to_string());
        detail.int("qerror_infinite", replay.qerror_infinite);
        // From the window's start on: the writer's measured writes, then
        // the probe's.
        let writes_since_window =
            writer.as_ref().map_or(0, |w| w.latencies.len()) + probe.latencies.len();
        let mut wire: Vec<f64> = samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e6 - s.server_us as f64)
            .collect();
        let socket = SocketLayer {
            wire_us: median(&mut wire),
            plan_cache_hit_ratio,
            busy_rejections: stats.window("busy_rejections"),
            timeouts: stats.window("timeouts"),
            writer_wait_us: stats.run("engine_writer_wait_us") / writes_since_window.max(1) as f64,
            read_qps,
        };
        metrics = per_layer_metrics(&replay, &socket);
    }

    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        detail,
    })
}

/// Reopens the durable store at `path` in a fresh `perfbench reopen`
/// process, as a restarted server would, and returns how long
/// `open_durable` took there (recovery plus WAL replay). Checks
/// durability: the store must hold exactly the markers whose insert
/// `logs` saw acknowledged and whose delete they did not.
fn reopen_and_check(
    exe: &Path,
    path: &Path,
    logs: &[&WriteLog],
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("reopen").arg(path);
    for var in IGNORED_ENV {
        cmd.env_remove(var);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .find_map(|l| l.strip_prefix("REOPEN "))
        .and_then(|l| l.split_once(' '))
        .and_then(|(secs, markers)| {
            Some((secs.parse::<f64>().ok()?, markers.parse::<u64>().ok()?))
        });
    let Some((secs, markers)) = parsed.filter(|_| out.status.success()) else {
        return Err(format!(
            "reopen {}: {} {stdout}",
            path.display(),
            out.status
        ));
    };
    let inserted: u64 = logs.iter().map(|l| l.inserts_acked).sum();
    let deleted: u64 = logs.iter().map(|l| l.deletes_acked).sum();
    let live = inserted.saturating_sub(deleted);
    tally.attempted += 1;
    if markers != live {
        tally.fail(format!(
            "wrong marker count after reopen: {markers}, acknowledged {live}"
        ));
    }
    Ok(secs)
}

/// Deletes a durable store and its WAL sidecar.
fn remove_store(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(vamana_mass::pager::FilePager::wal_path(path));
}

/// The configuration the numbers were measured under.
fn effective_config(
    opts: &Options,
    server: &[String],
    stats: &HashMap<String, String>,
) -> JsonObject {
    let mut o = JsonObject::default();
    let stat = |k: &str| stats.get(k).cloned().unwrap_or_default();
    o.str("store_format", &stat("store_format"))
        .str("scan_workers", &stat("scan_workers"))
        .str("workers", &stat("workers"))
        .str("store_durable", &stat("store_durable"));
    for line in server {
        if let Some((key, value)) = line.strip_prefix("CONFIG ").and_then(|l| l.split_once(' ')) {
            o.str(key, value);
        }
    }
    let ignored: Vec<String> = IGNORED_ENV
        .iter()
        .filter(|v| std::env::var_os(v).is_some())
        .map(|v| v.to_string())
        .collect();
    o.int(
        "host_cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    )
    .int("seed", opts.seed)
    .str("git_rev", &git_rev())
    .strs("ignored_env", &ignored);
    o
}

/// The checkout's commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Document size against the buffer pool.
fn document_detail(prepared: &Prepared, stats: &StatsWindow) -> JsonObject {
    let pages = StatsWindow::get(&stats.last, "store_pages");
    let pool = BufferPool::DEFAULT_CAPACITY as f64;
    let mut o = JsonObject::default();
    o.num(
        "target_mb",
        prepared
            .options
            .doc_mb
            .unwrap_or(prepared.options.workload.doc_mb()),
    )
    .int("xml_bytes", prepared.xml.len() as u64)
    .num("pages", pages)
    .num("pool_pages", pool)
    .num("pages_per_pool", pages / pool)
    .int("distinct_reads", prepared.mix.queries.len() as u64);
    o
}

fn failure_detail(tally: &Tally) -> JsonObject {
    let mut o = JsonObject::default();
    o.int("refused", tally.refused)
        .int("timeouts", tally.timeouts)
        .int("wrong", tally.wrong)
        .int(
            "other",
            tally.failed - tally.refused - tally.timeouts - tally.wrong,
        )
        .strs("first", &tally.errors);
    o
}

fn writer_detail(writes: &WriteLog, workload: Workload) -> JsonObject {
    let mut lateness = millis(&writes.lateness);
    let mut checkpoints = millis(&writes.checkpoints);
    let mut o = JsonObject::default();
    let mode = if workload.has_writer() {
        format!(
            "open loop, one write per {} ms, checkpoint every {} s",
            WRITE_PERIOD.as_millis(),
            CHECKPOINT_EVERY.as_secs()
        )
    } else {
        format!("probe after the read window: {PROBE_OPS} writes back to back")
    };
    o.str("mode", &mode)
        .int("inserts_acked", writes.inserts_acked)
        .int("deletes_acked", writes.deletes_acked)
        .num("lateness_p95_ms", percentile(&mut lateness, 95.0))
        .num("lateness_max_ms", percentile(&mut lateness, 100.0))
        .num("checkpoint_p50_ms", percentile(&mut checkpoints, 50.0))
        .num("checkpoint_max_ms", percentile(&mut checkpoints, 100.0));
    o
}

/// The type of a read: its query class and whether its plan was cached.
fn read_type(mix: &ReadMix, s: &ReadSample) -> String {
    let plan = if s.cached { "cached" } else { "compiled" };
    format!("{}/{plan}", mix.queries[s.query].class)
}

/// Sample count, median and 95th-percentile latency per read type.
fn read_types(mix: &ReadMix, samples: &[ReadSample]) -> JsonObject {
    let mut by_type: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for s in samples {
        by_type
            .entry(read_type(mix, s))
            .or_default()
            .push(s.latency.as_secs_f64() * 1e3);
    }
    let mut o = JsonObject::default();
    for (name, mut ms) in by_type {
        let mut t = JsonObject::default();
        t.int("n", ms.len() as u64)
            .num("p50_ms", median(&mut ms))
            .num("p95_ms", percentile(&mut ms, 95.0));
        o.obj(&name, &t);
    }
    o
}

/// Share of the reads ranked between the 40th and 60th percentile that
/// belong to the most common read type there. Near 1, the median sits
/// inside one type's latency band; near 0.5, on a boundary between two
/// types, where it would flip from run to run.
fn band_purity(mix: &ReadMix, samples: &[ReadSample]) -> f64 {
    let mut sorted: Vec<&ReadSample> = samples.iter().collect();
    sorted.sort_by_key(|s| s.latency);
    let n = sorted.len();
    let band = &sorted[n * 2 / 5..n * 3 / 5];
    let mut counts: HashMap<String, usize> = HashMap::new();
    for s in band {
        *counts.entry(read_type(mix, s)).or_default() += 1;
    }
    counts.values().max().copied().unwrap_or(0) as f64 / band.len().max(1) as f64
}

/// Per-layer numbers taken from the socket run.
struct SocketLayer {
    wire_us: f64,
    plan_cache_hit_ratio: f64,
    busy_rejections: f64,
    timeouts: f64,
    writer_wait_us: f64,
    read_qps: f64,
}

/// The per-layer metrics, in [`PER_LAYER`] order.
fn per_layer_metrics(
    replay: &replay::Replay,
    socket: &SocketLayer,
) -> Vec<(&'static str, f64, &'static str)> {
    let layers = replay.tracer.self_times(replay.window_from);
    let us = |name: &str| layers.get(name).map_or(0.0, |l| l.mean_us());
    let c = &replay.counters;
    let per_read = |v: u64| v as f64 / c.reads.max(1) as f64;
    let per_write = |v: u64| v as f64 / c.writes.max(1) as f64;
    let mut qerrors = replay.qerrors.clone();
    let trace_qps = c.reads as f64 / replay.window_secs.max(1e-9);
    let values: HashMap<&str, f64> = HashMap::from([
        ("xpath.parse_us", us("xpath.parse")),
        ("core.compile_us", us("core.compile")),
        ("core.optimize_us", us("core.optimize")),
        (
            "core.rules_applied",
            c.rules_applied as f64 / c.optimizes.max(1) as f64,
        ),
        ("core.qerror_p50", percentile(&mut qerrors, 50.0)),
        ("core.qerror_max", percentile(&mut qerrors, 100.0)),
        ("core.execute_us", us("core.execute")),
        ("core.rows", per_read(c.rows)),
        ("core.fused_chains", per_read(c.fused_chains)),
        ("core.par_morsels", per_read(c.par_morsels)),
        ("mass.pool.hits", per_read(c.pool.hits)),
        ("mass.pool.misses", per_read(c.pool.misses)),
        (
            "mass.pool.hit_ratio",
            c.pool.hits as f64 / (c.pool.hits + c.pool.misses).max(1) as f64,
        ),
        ("mass.pool.pins_saved", per_read(c.pool.pins_saved)),
        ("mass.decode.v1", per_read(c.pool.decodes_v1)),
        ("mass.decode.v2", per_read(c.pool.decodes_v2)),
        ("mass.pages", replay.pages as f64),
        ("mass.tuples_per_page", replay.tuples_per_page),
        ("mass.load_ms", replay.load_ms),
        ("core.insert_us", us("core.insert")),
        ("core.delete_us", us("core.delete")),
        ("mass.wal.fsyncs_per_write", per_write(c.wal_fsyncs)),
        ("mass.wal.records_per_write", per_write(c.wal_records)),
        ("mass.checkpoint_ms", us("mass.checkpoint") / 1e3),
        ("server.render_us", us("server.render")),
        ("server.wire_us", socket.wire_us),
        ("server.plan_cache_hit_ratio", socket.plan_cache_hit_ratio),
        ("server.busy_rejections", socket.busy_rejections),
        ("server.timeouts", socket.timeouts),
        ("core.writer_wait_us", socket.writer_wait_us),
        ("trace.read_qps", trace_qps),
        (
            "trace.gap_pct",
            100.0 * (1.0 - trace_qps / socket.read_qps.max(1e-9)),
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, values[name], *unit))
        .collect()
}
