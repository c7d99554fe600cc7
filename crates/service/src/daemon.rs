//! The live daemon: wall clocks, threads and sockets.
//!
//! Everything stochastic about a real deployment lives in this file and
//! nowhere else — the crash-isolated engine worker thread, the wall-time
//! decision deadline, the Unix-socket control plane and the telemetry
//! file. The decisions themselves still come from the deterministic
//! [`ServiceCore`], which is why a SIGKILLed daemon can resume with
//! byte-identical telemetry.
//!
//! Crash isolation: the engine runs on its own thread behind a pair of
//! rendezvous channels. A panic is caught at the thread boundary and
//! surfaces as [`EngineFault::Panicked`]; a decision that misses the
//! watchdog deadline surfaces as [`EngineFault::Stalled`] and the worker
//! is abandoned (it exits on its next send, which has no receiver). The
//! supervisor then runs safe mode and schedules restarts — the daemon's
//! control loop never blocks on a wedged engine for more than one
//! deadline.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::time::Duration;

use ins_core::controller::{ControlAction, SystemObservation};
use ins_core::engine::try_engine;

use crate::harness::{DrainReport, ServiceCore, ServiceError, ServiceSpec};
use crate::protocol;
use crate::resume::ResumeToken;
use crate::supervisor::{EngineExecutor, EngineFault};

/// Default wall-clock decision deadline enforced by the watchdog.
pub const DEFAULT_DEADLINE: Duration = Duration::from_millis(250);

/// Ticks a socketless, feedless, unbounded daemon runs before draining
/// on its own (one simulated day of 1-minute periods).
pub const DEFAULT_MAX_TICKS: u64 = 1440;

/// The channel pair a live engine worker listens on.
struct EngineWorker {
    obs_tx: SyncSender<SystemObservation>,
    res_rx: Receiver<std::thread::Result<ControlAction>>,
}

fn spawn_worker(key: &str) -> Result<(EngineWorker, &'static str), ServiceError> {
    let mut engine = try_engine(key)?;
    let display = engine.name();
    let (obs_tx, obs_rx) = std::sync::mpsc::sync_channel::<SystemObservation>(1);
    let (res_tx, res_rx) = std::sync::mpsc::sync_channel::<std::thread::Result<ControlAction>>(1);
    let spawned = std::thread::Builder::new()
        .name(format!("engine-{key}"))
        .spawn(move || {
            while let Ok(obs) = obs_rx.recv() {
                let result = catch_unwind(AssertUnwindSafe(|| engine.control(&obs)));
                let poisoned = result.is_err();
                if res_tx.send(result).is_err() || poisoned {
                    // Receiver gone (stall-abandoned) or engine state
                    // possibly torn by the panic: stop serving.
                    break;
                }
            }
        });
    match spawned {
        Ok(_) => Ok((EngineWorker { obs_tx, res_rx }, display)),
        Err(e) => Err(ServiceError::Io(format!(
            "could not spawn engine worker: {e}"
        ))),
    }
}

/// Crash-isolated executor: the engine decides on a worker thread under
/// a wall-clock deadline.
pub struct ThreadedExecutor {
    key: String,
    display: &'static str,
    deadline: Duration,
    worker: Option<EngineWorker>,
}

impl core::fmt::Debug for ThreadedExecutor {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ThreadedExecutor")
            .field("key", &self.key)
            .field("deadline", &self.deadline)
            .field("alive", &self.worker.is_some())
            .finish()
    }
}

impl ThreadedExecutor {
    /// Spawns the worker hosting the engine registered under `key`.
    ///
    /// # Errors
    ///
    /// Propagates a [`ServiceError`] for unknown names or spawn failure.
    pub fn try_new(key: &str, deadline: Duration) -> Result<Self, ServiceError> {
        let (worker, display) = spawn_worker(key)?;
        Ok(Self {
            key: key.to_string(),
            display,
            deadline,
            worker: Some(worker),
        })
    }
}

impl EngineExecutor for ThreadedExecutor {
    fn engine_name(&self) -> &'static str {
        self.display
    }

    fn control(&mut self, obs: &SystemObservation) -> Result<ControlAction, EngineFault> {
        let Some(worker) = &self.worker else {
            return Err(EngineFault::Panicked);
        };
        if worker.obs_tx.send(obs.clone()).is_err() {
            self.worker = None;
            return Err(EngineFault::Panicked);
        }
        match worker.res_rx.recv_timeout(self.deadline) {
            Ok(Ok(action)) => Ok(action),
            Ok(Err(_)) => {
                self.worker = None;
                Err(EngineFault::Panicked)
            }
            Err(RecvTimeoutError::Timeout) => {
                // Abandon the wedged worker; it exits on its next send.
                self.worker = None;
                Err(EngineFault::Stalled)
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.worker = None;
                Err(EngineFault::Panicked)
            }
        }
    }

    fn restart(&mut self) -> bool {
        match spawn_worker(&self.key) {
            Ok((worker, display)) => {
                self.worker = Some(worker);
                self.display = display;
                true
            }
            Err(_) => false,
        }
    }
}

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// The deterministic service spec.
    pub spec: ServiceSpec,
    /// Control socket path, when a control plane is wanted.
    pub socket: Option<PathBuf>,
    /// Telemetry sink (appended on resume); stdout when absent.
    pub telemetry: Option<PathBuf>,
    /// Resume-token path: read on start (crash-only restart), written
    /// after every tick.
    pub resume: Option<PathBuf>,
    /// Hard tick limit; `None` means run until the feed ends (or
    /// [`DEFAULT_MAX_TICKS`] when nothing else bounds the run).
    pub max_ticks: Option<u64>,
    /// Wall-clock pause between ticks (lets chaos tests SIGKILL
    /// mid-run); full speed when `None`.
    pub pace: Option<Duration>,
    /// Watchdog decision deadline for the engine worker.
    pub deadline: Duration,
}

impl DaemonOptions {
    /// Options with everything optional off.
    #[must_use]
    pub fn new(spec: ServiceSpec) -> Self {
        Self {
            spec,
            socket: None,
            telemetry: None,
            resume: None,
            max_ticks: None,
            pace: None,
            deadline: DEFAULT_DEADLINE,
        }
    }
}

/// What a completed daemon run looked like.
#[derive(Debug, Clone, PartialEq)]
pub struct DaemonReport {
    /// Control periods completed (including fast-forwarded ones).
    pub ticks: u64,
    /// Ticks replayed silently on resume.
    pub resumed_from: u64,
    /// The drain outcome.
    pub drain: DrainReport,
}

struct Connection {
    stream: UnixStream,
    buffer: Vec<u8>,
}

/// One accepted-but-unprocessed control connection set.
struct ControlPlane {
    listener: UnixListener,
    path: PathBuf,
    connections: Vec<Connection>,
}

impl ControlPlane {
    fn bind(path: &PathBuf) -> Result<Self, ServiceError> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)
            .map_err(|e| ServiceError::Io(format!("bind {path:?}: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::Io(format!("socket nonblocking: {e}")))?;
        Ok(Self {
            listener,
            path: path.clone(),
            connections: Vec::new(),
        })
    }

    fn accept_new(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        self.connections.push(Connection {
                            stream,
                            buffer: Vec::new(),
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Reads available bytes, handles complete lines, writes replies.
    /// Returns `true` when a command requested shutdown.
    fn pump(&mut self, core: &mut ServiceCore) -> bool {
        self.accept_new();
        let mut shutdown = false;
        let mut keep = Vec::with_capacity(self.connections.len());
        for mut conn in self.connections.drain(..) {
            let mut open = true;
            let mut chunk = [0u8; 4096];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        open = false;
                        break;
                    }
                    Ok(n) => conn.buffer.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        open = false;
                        break;
                    }
                }
            }
            while open {
                let Some(pos) = conn.buffer.iter().position(|&b| b == b'\n') else {
                    break;
                };
                let line: Vec<u8> = conn.buffer.drain(..=pos).collect();
                let text = String::from_utf8_lossy(&line);
                let reply = protocol::handle(core, text.trim());
                let payload = format!("{}\n", reply.text);
                if conn.stream.write_all(payload.as_bytes()).is_err() {
                    open = false;
                }
                shutdown = shutdown || reply.shutdown;
                if reply.close {
                    open = false;
                }
            }
            if open {
                keep.push(conn);
            }
        }
        self.connections = keep;
        shutdown
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

enum Sink {
    Stdout,
    File(std::fs::File),
}

impl Sink {
    fn open(path: Option<&PathBuf>) -> Result<Self, ServiceError> {
        match path {
            None => Ok(Self::Stdout),
            Some(path) => std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map(Self::File)
                .map_err(|e| ServiceError::Io(format!("open telemetry {path:?}: {e}"))),
        }
    }

    fn emit(&mut self, line: &str) -> Result<(), ServiceError> {
        match self {
            Self::Stdout => {
                println!("{line}");
                Ok(())
            }
            Self::File(f) => {
                write_line(f, line).map_err(|e| ServiceError::Io(format!("telemetry write: {e}")))
            }
        }
    }
}

/// Writes `line` and its newline with one `write_all`: `writeln!` issues
/// two writes, and a SIGKILL between them would leave the line without
/// its newline for the resumed daemon's header to run into.
fn write_line(w: &mut impl Write, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    w.write_all(buf.as_bytes())?;
    w.flush()
}

/// Runs the daemon to completion (drain command, tick limit or feed
/// exhaustion), supervising a crash-isolated engine worker.
///
/// # Errors
///
/// Any [`ServiceError`]; engine faults are *not* errors — they are
/// handled by the supervisor and recorded in telemetry.
pub fn run(opts: DaemonOptions) -> Result<DaemonReport, ServiceError> {
    let exec = ThreadedExecutor::try_new(&opts.spec.engine, opts.deadline)?;
    let mut core = ServiceCore::with_executor(opts.spec.clone(), Box::new(exec))?;

    // Crash-only restart: an existing token means a previous instance
    // died (or was killed) mid-run. Validate and fast-forward.
    let mut resumed_from = 0;
    if let Some(token_path) = &opts.resume {
        if token_path.exists() {
            let token = ResumeToken::load(token_path)?;
            opts.spec.accepts(&token)?;
            core.fast_forward(token.ticks);
            resumed_from = token.ticks;
        }
    }

    let mut sink = Sink::open(opts.telemetry.as_ref())?;
    sink.emit(&format!(
        "# insure-service engine={} seed={} resumed_from={}",
        opts.spec.engine, opts.spec.seed, resumed_from
    ))?;

    let mut control = match &opts.socket {
        Some(path) => Some(ControlPlane::bind(path)?),
        None => None,
    };

    // An unbounded daemon with no feed and no control plane would spin
    // forever with no way to stop it; bound it to one simulated day.
    let max_ticks = match opts.max_ticks {
        Some(n) => Some(n),
        None if opts.spec.replay.is_none() && opts.socket.is_none() => Some(DEFAULT_MAX_TICKS),
        None => None,
    };

    loop {
        let shutdown = match &mut control {
            Some(plane) => plane.pump(&mut core),
            None => false,
        };
        if shutdown || core.drained() {
            break;
        }
        if let Some(limit) = max_ticks {
            if core.ticks() >= limit {
                break;
            }
        }
        if core.feed_exhausted() {
            break;
        }
        let Some(line) = core.tick() else { break };
        sink.emit(&line)?;
        if let Some(token_path) = &opts.resume {
            core.resume_token().save(token_path)?;
        }
        if let Some(pace) = opts.pace {
            std::thread::sleep(pace);
        }
    }

    let drain = core.drain();
    sink.emit(&drain.line)?;
    if let Some(token_path) = &opts.resume {
        core.resume_token().save(token_path)?;
    }
    Ok(DaemonReport {
        ticks: core.ticks(),
        resumed_from,
        drain,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_and_its_newline_go_out_in_one_write() {
        let mut w = CountingWriter::default();
        write_line(&mut w, "tick=0 t=60").expect("in-memory write");
        assert_eq!(w.writes, 1);
        assert_eq!(w.bytes, b"tick=0 t=60\n");
    }
}
