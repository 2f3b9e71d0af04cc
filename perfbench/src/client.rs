//! A blocking client for the server's line protocol, and the server
//! process it talks to.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Environment variables the engine or server read to switch
/// non-default modes. The benchmark measures the shipped defaults, so
/// it strips them from the server's environment.
pub const IGNORED_ENV: [&str; 3] = ["VAMANA_FORMAT", "VAMANA_VIEWS", "VAMANA_FUSE"];

/// How long a client waits for one reply before counting it as timed
/// out. Well above the server's own 10 s query deadline.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection speaking the line protocol. Unlike the server crate's
/// test client, which panics on I/O errors, it returns them, so that a
/// failing server counts as failed operations instead of aborting the
/// run; and it sends each request in one write with Nagle off.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

/// A complete reply: the terminating `OK …`/`ERR …` line and the lines
/// before it.
pub struct Reply {
    /// The terminating line.
    pub head: String,
    /// `ROW`/`STAT`/`PLAN`/`VAL` lines, in order.
    pub body: Vec<String>,
}

impl Reply {
    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.head.starts_with("OK")
    }
}

impl Conn {
    /// Connects to `addr` with Nagle off, as a latency-sensitive client
    /// would.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one request line and reads its reply.
    pub fn call(&mut self, request: &str) -> std::io::Result<Reply> {
        let mut out = Vec::with_capacity(request.len() + 1);
        out.extend_from_slice(request.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut body = Vec::new();
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let line = self.line.trim_end_matches(['\n', '\r']);
            if line.starts_with("OK") || line.starts_with("ERR") {
                return Ok(Reply {
                    head: line.to_string(),
                    body,
                });
            }
            body.push(line.to_string());
        }
    }

    /// `STATS` as a key → value map.
    pub fn stats(&mut self) -> Result<HashMap<String, String>, String> {
        let reply = self.call("STATS").map_err(|e| format!("STATS: {e}"))?;
        if !reply.is_ok() {
            return Err(format!("STATS: {}", reply.head));
        }
        Ok(reply
            .body
            .iter()
            .filter_map(|l| l.strip_prefix("STAT "))
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect())
    }
}

/// The fields of a `QUERY` reply's `OK` line:
/// `OK <n> row(s) plan=<cached|compiled> <us>us hits=<h> misses=<m>`.
#[derive(Debug, Clone, Copy)]
pub struct QueryOk {
    /// Result cardinality (before the row limit).
    pub rows: u64,
    /// Whether the plan came from the plan cache.
    pub cached: bool,
    /// Server-side time from admission to rendered result.
    pub server_us: u64,
}

/// Parses a `QUERY` reply's `OK` line.
pub fn parse_query_ok(head: &str) -> Option<QueryOk> {
    let mut words = head.split(' ');
    if words.next()? != "OK" {
        return None;
    }
    let rows = words.next()?.parse().ok()?;
    if words.next()? != "row(s)" {
        return None;
    }
    let cached = words.next()?.strip_prefix("plan=")? == "cached";
    let server_us = words.next()?.strip_suffix("us")?.parse().ok()?;
    Some(QueryOk {
        rows,
        cached,
        server_us,
    })
}

/// `(inserted, deleted)` tuple counts of an `OK update …` line.
pub fn parse_update_ok(head: &str) -> Option<(u64, u64)> {
    let field = |key: &str| -> Option<u64> {
        head.split(' ')
            .find_map(|w| w.strip_prefix(key))
            .and_then(|v| v.parse().ok())
    };
    if !head.starts_with("OK update ") {
        return None;
    }
    Some((field("inserted=")?, field("deleted=")?))
}

/// The server under test, running in its own process so that its peak
/// RSS is the program's and not the client's. Closing its stdin stops
/// it.
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    /// Address the server listens on.
    pub addr: SocketAddr,
    /// Effective configuration lines the server printed at start.
    pub config: Vec<String>,
}

impl ServerProc {
    /// Starts `exe serve <store>` over a fresh durable store at `store`
    /// and waits until it listens.
    pub fn start(exe: &Path, store: &Path) -> Result<ServerProc, String> {
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg(store)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for var in IGNORED_ENV {
            cmd.env_remove(var);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut lines = BufReader::new(stdout).lines();
        let mut config = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => match line.strip_prefix("LISTENING ") {
                    Some(addr) => {
                        break addr.parse().map_err(|e| format!("bad address {addr}: {e}"))
                    }
                    None => config.push(line),
                },
                _ => break Err("server exited before listening".to_string()),
            }
        };
        let mut server = ServerProc {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            config,
        };
        match addr {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            Err(e) => {
                server.stop();
                Err(e)
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Stops the server and waits for the process to end: closes its
    /// stdin, then kills it if it has not exited within ten seconds.
    pub fn stop(mut self) {
        self.stdin.take();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stdin.take();
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Blocks until stdin reaches end of file (the server's stop signal).
pub fn wait_for_stdin_eof() {
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}
