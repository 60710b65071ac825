//! The service under test: the server child process, and the lock-step
//! client loop that loads it over loopback.

use crate::trace::{Spans, NO_PARENT};
use crate::workload::{Expected, Inputs, Op};
use rd_server::{Client, Request, Response, Server, ServerConfig};
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the server may take to bind, or to exit after `shutdown`.
const SERVER_GRACE: Duration = Duration::from_secs(60);

/// `svcbench serve`: runs `rd_server::Server` exactly as `rd serve` does
/// (default configuration, ephemeral port), over the fixture in `--db`.
/// Publishes `<addr>\n<shards>\n` atomically in `--port-file`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let (mut db, mut port_file, mut data_dir) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
        match arg.as_str() {
            "--db" => db = Some(value.clone()),
            "--port-file" => port_file = Some(PathBuf::from(value)),
            "--data-dir" => data_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown serve option '{other}'")),
        }
    }
    let (db, port_file) = db
        .zip(port_file)
        .ok_or("serve needs --db and --port-file")?;
    die_with_parent();
    let text = fs::read_to_string(&db).map_err(|e| format!("cannot read {db}: {e}"))?;
    let db = rd_engine::parse_fixture(&text).map_err(|e| format!("bad fixture {db}: {e}"))?;
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir,
        ..ServerConfig::default()
    };
    let server = Server::bind(config, db).map_err(|e| format!("cannot bind: {e}"))?;
    let tmp = port_file.with_extension("tmp");
    fs::write(
        &tmp,
        format!("{}\n{}\n", server.local_addr(), server.shard_count()),
    )
    .and_then(|()| fs::rename(&tmp, &port_file))
    .map_err(|e| format!("cannot publish the port: {e}"))?;
    server.serve().map_err(|e| format!("server error: {e}"))
}

/// Asks the kernel to kill this process when its parent dies, so a
/// killed benchmark never leaves a server behind.
fn die_with_parent() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: std::ffi::c_ulong = 9;
    // SAFETY: PR_SET_PDEATHSIG takes one integer argument (the signal
    // number) and reads or writes no memory of this process.
    unsafe {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
    }
}

/// A running server child process. Dropping it kills the process and
/// waits for it.
pub struct ServerProc {
    child: Option<Child>,
    /// The bound address, `host:port`.
    pub addr: String,
    /// Event-loop shards the server resolved (one per core by default).
    pub shards: usize,
}

impl ServerProc {
    /// Starts this executable in `serve` mode over `fixture`, durable in
    /// `data_dir` when given, and waits until it accepts connections.
    pub fn spawn(
        work: &Path,
        fixture: &Path,
        data_dir: Option<&Path>,
    ) -> Result<ServerProc, String> {
        let port_file = work.join("server.port");
        let _ = fs::remove_file(&port_file);
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
        let log_path = work.join("server.log");
        let log = File::create(&log_path).map_err(|e| format!("cannot create server log: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--db")
            .arg(fixture)
            .arg("--port-file")
            .arg(&port_file);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let mut proc = ServerProc {
            child: Some(child),
            addr: String::new(),
            shards: 0,
        };
        let deadline = Instant::now() + SERVER_GRACE;
        loop {
            if let Ok(text) = fs::read_to_string(&port_file) {
                let mut lines = text.lines();
                if let (Some(addr), Some(shards)) = (lines.next(), lines.next()) {
                    proc.addr = addr.to_string();
                    proc.shards = shards.parse().map_err(|_| "bad port file".to_string())?;
                    return Ok(proc);
                }
            }
            let child = proc.child.as_mut().expect("child is running");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "server exited during start-up ({status}); see {}",
                    log_path.display()
                ));
            }
            if Instant::now() > deadline {
                return Err("server did not start within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("child is running").id()
    }

    /// The server process's peak resident set size, in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in the server's status".into())
    }

    /// Sends `shutdown` and waits for a clean exit (killing the process if
    /// it does not exit in time). Close every client connection first:
    /// the server drains open connections before it exits.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(&self.addr).and_then(|mut c| c.shutdown());
        let mut child = self.child.take().expect("child is running");
        let deadline = Instant::now() + SERVER_GRACE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    return asked.map_err(|e| format!("shutdown request failed: {e}"))
                }
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after shutdown".into());
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// When a connection's loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// After this many operations.
    Ops(usize),
    /// At this instant.
    Until(Instant),
}

/// One answered operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the answer completed, nanoseconds since the run's epoch.
    pub at: u64,
    /// Round trip, nanoseconds.
    pub ns: u64,
    /// A write (`false`: a query).
    pub write: bool,
}

/// What one connection observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Every answered operation.
    pub samples: Vec<Sample>,
    /// Operations sent.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Writes the server acknowledged, in order.
    pub acked: Vec<Op>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }

    /// Folds `other` in.
    pub fn merge(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked.extend(other.acked);
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// The span/request id of stream position `pos` of connection `c`.
pub fn request_id(c: usize, pos: usize) -> u64 {
    ((c as u64) << 32) | pos as u64
}

/// Drives connection `c` lock-step through its stream from `*pos` until
/// `limit`: send one request, wait for the complete reply, check it,
/// repeat. With `spans`, records a `request` span per operation with its
/// `client.send` and `client.recv` children.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    client: &mut Client,
    inputs: &Inputs,
    expected: &[Expected],
    c: usize,
    pos: &mut usize,
    limit: Limit,
    epoch: Instant,
    mut spans: Option<&mut Spans>,
) -> Tally {
    let stream = &inputs.streams[c];
    let mut tally = Tally::default();
    let mut sent = 0usize;
    loop {
        match limit {
            Limit::Ops(n) if sent >= n => break,
            Limit::Until(t) if Instant::now() >= t => break,
            _ => {}
        }
        let op = stream[*pos % stream.len()];
        let id = request_id(c, *pos);
        *pos += 1;
        sent += 1;
        let write;
        let request: &Request = match op {
            Op::Query(i) => &inputs.queries[i as usize],
            _ => {
                write = inputs.write_request(c, op);
                &write
            }
        };
        tally.attempted += 1;
        let started = Instant::now();
        let reply = match spans.as_deref_mut() {
            None => client.send(request, None).and_then(|()| client.recv()),
            Some(s) => {
                let root = s.begin("request", NO_PARENT, id);
                let send = s.begin("client.send", root, id);
                let sent = client.send(request, None);
                s.end(send);
                let recv = s.begin("client.recv", root, id);
                let reply = sent.and_then(|()| client.recv());
                s.end(recv);
                s.end(root);
                reply
            }
        };
        let done = Instant::now();
        let sample = Sample {
            at: done.duration_since(epoch).as_nanos() as u64,
            ns: done.duration_since(started).as_nanos() as u64,
            write: !matches!(op, Op::Query(_)),
        };
        let reply: Response = match reply {
            Ok((_, reply)) => reply,
            Err(e) => {
                tally.fail(format!("connection {c}: {e}"));
                break; // the connection is unusable
            }
        };
        tally.samples.push(sample);
        if let (true, Response::Mutation(_)) = (sample.write, &reply) {
            tally.acked.push(op);
        }
        if let Err(e) = inputs.check(expected, op, &reply) {
            tally.fail(e);
        }
    }
    tally
}

/// Bytes of the regular files directly in `dir` (0 if it is missing).
pub fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
