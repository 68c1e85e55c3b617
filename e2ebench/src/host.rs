//! The server process, `/proc` readers and the host record.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::raw::{c_int, c_ulong};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::{get, Conn};

/// How long the server may take to print its startup line and answer.
const START_TIMEOUT: Duration = Duration::from_secs(60);

const PR_SET_PDEATHSIG: c_int = 1;
const SIGKILL: c_ulong = 9;

/// `prctl` for an option that takes one integer argument.
pub(crate) fn prctl(option: c_int, arg: c_ulong) {
    extern "C" {
        #[link_name = "prctl"]
        fn sys_prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: the options used here take one integer and read or write no
    // memory of this process.
    unsafe {
        sys_prctl(option, arg);
    }
}

/// A running `hamlet-serve serve` process.
pub struct ServerProc {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Executor and reactor counts from the server's startup line.
    pub executors: usize,
    pub reactors: usize,
}

/// Parses `... listening on http://ADDR (N executor(s), M reactor(s), ...`.
pub fn parse_startup(line: &str) -> Option<(SocketAddr, usize, usize)> {
    let rest = line.split("listening on http://").nth(1)?;
    let (addr, rest) = rest.split_once(' ')?;
    let count = |tag: &str| -> Option<usize> {
        let before = rest.split(tag).next()?;
        before
            .rsplit(|c: char| !c.is_ascii_digit())
            .find(|s| !s.is_empty())?
            .parse()
            .ok()
    };
    Some((
        addr.parse().ok()?,
        count(" executor(s)")?,
        count(" reactor(s)")?,
    ))
}

impl ServerProc {
    /// Spawns `bin serve --dir dir` on an ephemeral loopback port, all
    /// other flags at their defaults, and returns once `/healthz` answers
    /// 200, with the time from spawn to that answer.
    pub fn start(bin: &Path, dir: &Path) -> Result<(ServerProc, Duration), String> {
        let t0 = Instant::now();
        let mut command = Command::new(bin);
        command
            .arg("serve")
            .arg("--dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // SAFETY: the hook runs in the forked child before `exec` and makes
        // one async-signal-safe system call.
        unsafe {
            command.pre_exec(|| {
                // A benchmark killed mid-run must not leave its server behind.
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the startup line, then drains stderr until the process
        // exits so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("listening on") {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(line);
                    }
                }
            }
        });
        let mut server = ServerProc {
            child,
            drain: Some(drain),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            executors: 0,
            reactors: 0,
        };
        let line = rx
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "the server printed no startup line".to_string())?;
        let (addr, executors, reactors) =
            parse_startup(&line).ok_or_else(|| format!("unparsable startup line `{line}`"))?;
        server.addr = addr;
        server.executors = executors;
        server.reactors = reactors;
        let mut conn = Conn::new(addr);
        loop {
            if matches!(conn.call(&get("/healthz")), Ok(r) if r.status == 200) {
                break;
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err("/healthz never answered 200".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((server, t0.elapsed()))
    }

    /// Peak resident set (`VmHWM`) of the server, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        vm_hwm_mb(&status).ok_or_else(|| "no VmHWM in server status".into())
    }

    /// Kills the server and waits until it has exited.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt().map_err(|e| format!("stopping the server: {e}"))
    }

    fn halt(&mut self) -> std::io::Result<()> {
        if self.child.try_wait()?.is_none() {
            self.child.kill()?;
        }
        self.child.wait()?;
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` text, in MiB.
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process, in MiB.
pub fn self_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    vm_hwm_mb(&status).ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The `/proc/net/netstat` counters that show a connect stalled in the
/// kernel rather than in the server.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub listen_overflows: u64,
    pub syn_retrans: u64,
}

impl NetCounters {
    pub fn read() -> Result<NetCounters, String> {
        let text = std::fs::read_to_string("/proc/net/netstat").map_err(|e| e.to_string())?;
        let ext = tcp_ext(&text);
        let field = |name: &str| {
            ext.get(name)
                .copied()
                .ok_or_else(|| format!("/proc/net/netstat has no TcpExt {name}"))
        };
        Ok(NetCounters {
            listen_overflows: field("ListenOverflows")?,
            syn_retrans: field("TCPSynRetrans")?,
        })
    }

    /// Counter growth since `before`.
    pub fn since(self, before: NetCounters) -> NetCounters {
        NetCounters {
            listen_overflows: self
                .listen_overflows
                .saturating_sub(before.listen_overflows),
            syn_retrans: self.syn_retrans.saturating_sub(before.syn_retrans),
        }
    }
}

/// The `TcpExt` name/value pairs of a `/proc/net/netstat` text.
pub fn tcp_ext(text: &str) -> BTreeMap<String, u64> {
    let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("TcpExt:")).collect();
    match rows.as_slice() {
        [names, values, ..] => names
            .split_whitespace()
            .zip(values.split_whitespace())
            .skip(1)
            .filter_map(|(n, v)| Some((n.to_string(), v.parse().ok()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// First line a command prints, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version`.
pub fn rustc_version() -> String {
    command_line("rustc", &["--version"])
}

/// The checked-out commit, or `unknown` outside a git repository.
pub fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"])
}

/// FNV-1a over the paths and contents of every file under `root`, sorted
/// by path: identifies the source when there is no commit to name.
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}
