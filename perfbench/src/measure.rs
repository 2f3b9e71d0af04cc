//! The socket clients: closed-loop readers, the open-loop writer, and
//! the write probe every workload runs after its read window.
//!
//! Every reply is checked: a read's `OK <n> row(s)` against the DOM
//! oracle, a write's tuple counts against what it should have changed.
//! Failed, refused (`ERR busy`), timed-out and wrong answers all count
//! as failures of the operation that was attempted.

use crate::client::{parse_query_ok, parse_update_ok, Conn};
use crate::workload::{ReadMix, MARKER};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use vamana_core::UpdateOp;

/// One measured read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    /// When it was sent, from the start of the measured window.
    pub at: Duration,
    /// From writing the `QUERY` line to reading its `OK` line.
    pub latency: Duration,
    /// The server-reported time in the `OK` line.
    pub server_us: u64,
    /// Whether the server answered from a cached plan.
    pub cached: bool,
    /// Index of the query in its [`ReadMix`].
    pub query: usize,
}

/// Operations attempted and how they failed.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations sent, warm-up included.
    pub attempted: u64,
    /// Operations that failed for any reason.
    pub failed: u64,
    /// `ERR busy` admission refusals.
    pub refused: u64,
    /// Server deadlines and client reply timeouts.
    pub timeouts: u64,
    /// Replies whose counts disagree with the oracle.
    pub wrong: u64,
    /// The first few failure messages, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    /// Records a failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if msg.starts_with("ERR busy") {
            self.refused += 1;
        } else if msg.starts_with("ERR timeout") || msg.contains("timed out") {
            self.timeouts += 1;
        } else if msg.starts_with("wrong") {
            self.wrong += 1;
        }
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Adds `other`'s counts to this tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.timeouts += other.timeouts;
        self.wrong += other.wrong;
        for e in &other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }
}

/// What one reader connection saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Reads sent at or after the start of the measured window.
    pub samples: Vec<ReadSample>,
    /// Every read, warm-up included.
    pub tally: Tally,
}

/// Keeps the reader connections in step: each sends its next request
/// only when every reader has its previous reply, so that readers
/// cycling the same sequence always run the same query side by side.
pub struct Lockstep {
    barrier: Barrier,
    stop: AtomicBool,
}

impl Lockstep {
    /// A lockstep for `readers` connections.
    pub fn new(readers: usize) -> Lockstep {
        Lockstep {
            barrier: Barrier::new(readers),
            stop: AtomicBool::new(false),
        }
    }

    /// Waits for every reader; false once any of them has stopped.
    fn next(&self) -> bool {
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }

    /// Stops every reader at the next step.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Leaves the lockstep early (on a lost connection), releasing the
    /// readers waiting for this one.
    fn abandon(&self) {
        self.stop();
        self.barrier.wait();
    }
}

/// Sends connection `conn`'s request stream in a closed loop until
/// `until`, recording the reads sent at or after `measure_from`. With
/// `lockstep`, every request waits for the other readers' replies.
pub fn run_reader(
    addr: SocketAddr,
    mix: &ReadMix,
    seed: u64,
    conn: usize,
    measure_from: Instant,
    until: Instant,
    lockstep: Option<&Lockstep>,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut c = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.tally.attempted += 1;
            log.tally.fail(format!("connect: {e}"));
            if let Some(l) = lockstep {
                l.abandon();
            }
            return log;
        }
    };
    let mut stream = mix.stream(seed, conn);
    let mut line = String::with_capacity(128);
    while lockstep.map_or_else(|| Instant::now() < until, Lockstep::next) {
        let index = stream.next_index();
        let query = &mix.queries[index];
        line.clear();
        line.push_str("QUERY ");
        line.push_str(&query.xpath);
        log.tally.attempted += 1;
        let sent = Instant::now();
        let reply = match c.call(&line) {
            Ok(reply) => reply,
            Err(e) => {
                log.tally.fail(format!("read {}: {e}", query.xpath));
                if let Some(l) = lockstep {
                    l.abandon();
                }
                return log;
            }
        };
        let latency = sent.elapsed();
        match parse_query_ok(&reply.head) {
            Some(ok) if ok.rows == query.expected => {
                if sent >= measure_from {
                    log.samples.push(ReadSample {
                        at: sent - measure_from,
                        latency,
                        server_us: ok.server_us,
                        cached: ok.cached,
                        query: index,
                    });
                }
            }
            Some(ok) => log.tally.fail(format!(
                "wrong count for {}: server {} oracle {}",
                query.xpath, ok.rows, query.expected
            )),
            None => log.tally.fail(reply.head),
        }
        if let Some(l) = lockstep.filter(|_| Instant::now() >= until) {
            l.stop();
        }
    }
    log
}

/// What the writer saw.
#[derive(Debug, Default)]
pub struct WriteLog {
    /// `(due, latency)` of each `INSERT`/`DELETE`: its due time from the
    /// start of the measured window (for the probe, when it was sent,
    /// from the probe's start), and its latency timed from that time.
    pub latencies: Vec<(Duration, Duration)>,
    /// How late each write was sent against its schedule.
    pub lateness: Vec<Duration>,
    /// `CHECKPOINT` latencies.
    pub checkpoints: Vec<Duration>,
    /// Inserts the server acknowledged.
    pub inserts_acked: u64,
    /// Deletes the server acknowledged as removing their marker.
    pub deletes_acked: u64,
    /// Every write and checkpoint sent.
    pub tally: Tally,
    /// Number of the first write not sent.
    pub next_write: u64,
}

/// The writer's schedule: write `first + i` (an insert when even, the
/// delete of that marker when odd) is due at `start + i * period`, and
/// a checkpoint at every multiple of `checkpoint_every`.
pub struct Schedule {
    /// Number of the first write.
    pub first: u64,
    /// Due time of the first write.
    pub start: Instant,
    /// Gap between consecutive writes.
    pub period: Duration,
    /// Gap between checkpoints.
    pub checkpoint_every: Duration,
    /// No write is sent at or after this instant.
    pub until: Instant,
    /// Writes due before this instant are sent but not recorded.
    pub measure_from: Instant,
}

/// Runs the open-loop writer: each write is sent when due, or at once
/// if the previous one ran past its slot; its latency counts from the
/// due time, so a stall shows in every write it delays.
pub fn run_writer(addr: SocketAddr, schedule: &Schedule) -> WriteLog {
    let mut log = WriteLog::default();
    let mut c = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.tally.attempted += 1;
            log.tally.fail(format!("connect: {e}"));
            return log;
        }
    };
    let mut next_checkpoint = schedule.start + schedule.checkpoint_every;
    for i in 0u64.. {
        let due = schedule.start + schedule.period * i as u32;
        if due >= schedule.until {
            log.next_write = schedule.first + i;
            break;
        }
        if due >= next_checkpoint {
            sleep_until(next_checkpoint);
            next_checkpoint += schedule.checkpoint_every;
            let sent = Instant::now();
            if !checkpoint(&mut c, &mut log) {
                return log;
            }
            if sent >= schedule.measure_from {
                log.checkpoints.push(sent.elapsed());
            }
        }
        sleep_until(due);
        let sent = Instant::now();
        if !write(&mut c, schedule.first + i, &mut log) {
            return log;
        }
        if due >= schedule.measure_from {
            log.latencies
                .push((due - schedule.measure_from, due.elapsed()));
            log.lateness.push(sent.saturating_duration_since(due));
        }
    }
    log
}

/// The write probe: `ops` writes sent back to back from write `first`,
/// with a checkpoint before the last `tail` of them (none when `tail`
/// is 0), each stamped with when it was sent from the probe's start.
pub fn run_write_probe(addr: SocketAddr, first: u64, ops: u64, tail: u64) -> WriteLog {
    let mut log = WriteLog::default();
    let mut c = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.tally.attempted += 1;
            log.tally.fail(format!("connect: {e}"));
            return log;
        }
    };
    let start = Instant::now();
    for i in first..first + ops {
        if i == first + ops - tail {
            let sent = Instant::now();
            if !checkpoint(&mut c, &mut log) {
                return log;
            }
            log.checkpoints.push(sent.elapsed());
        }
        let sent = Instant::now();
        if !write(&mut c, i, &mut log) {
            return log;
        }
        log.latencies.push((sent - start, sent.elapsed()));
    }
    log.next_write = first + ops;
    log
}

fn sleep_until(t: Instant) {
    if let Some(wait) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
}

/// Write `i`: even writes insert marker `i / 2` under `/site`, odd
/// writes delete it again, so the document's size stays steady.
pub fn write_op(i: u64) -> UpdateOp {
    let seq = i / 2;
    if i.is_multiple_of(2) {
        UpdateOp::Insert {
            target: "/site".into(),
            fragment: format!("<{MARKER} seq=\"{seq}\"/>"),
        }
    } else {
        UpdateOp::Delete {
            target: format!("/site/{MARKER}[@seq='{seq}']"),
        }
    }
}

/// The protocol line of write `i` against the `auction` document.
pub fn write_request(i: u64) -> String {
    match write_op(i) {
        UpdateOp::Insert { target, fragment } => format!("INSERT auction {target} {fragment}"),
        UpdateOp::Delete { target } => format!("DELETE auction {target}"),
    }
}

/// Sends write `i`; false when the connection is lost.
fn write(c: &mut Conn, i: u64, log: &mut WriteLog) -> bool {
    log.tally.attempted += 1;
    let request = write_request(i);
    let reply = match c.call(&request) {
        Ok(reply) => reply,
        Err(e) => {
            log.tally.fail(format!("write: {e}"));
            return false;
        }
    };
    match parse_update_ok(&reply.head) {
        Some((inserted, _)) if i.is_multiple_of(2) && inserted > 0 => log.inserts_acked += 1,
        Some((_, deleted)) if !i.is_multiple_of(2) && deleted > 0 => log.deletes_acked += 1,
        Some(_) => log
            .tally
            .fail(format!("wrong update result for {request}: {}", reply.head)),
        None => log.tally.fail(reply.head),
    }
    true
}

/// Sends a `CHECKPOINT`; false when the connection is lost.
fn checkpoint(c: &mut Conn, log: &mut WriteLog) -> bool {
    log.tally.attempted += 1;
    match c.call("CHECKPOINT") {
        Ok(reply) if reply.head.starts_with("OK checkpoint") => true,
        Ok(reply) => {
            log.tally.fail(reply.head);
            true
        }
        Err(e) => {
            log.tally.fail(format!("checkpoint: {e}"));
            false
        }
    }
}
