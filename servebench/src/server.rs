//! The program under test: a `lovm serve` child process, and the plain
//! line-oriented client connections the generator drives it with.

use crate::procfs::pin_current_thread;
use std::io::{BufRead, BufReader, Error, ErrorKind, Result, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `prctl` option delivering a signal to the child when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `lovm serve --v 20 --budget 2`. Dropping it kills the
/// process and waits for it.
pub struct Server {
    child: Child,
    /// Held open so the server's startup lines never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Server {
    /// Starts the server on an ephemeral port journaling to `journal_dir`,
    /// with every `LOVM_*` variable but `LOVM_JOURNAL` removed from its
    /// environment and all its threads pinned to `cpu`. The caller's
    /// thread is pinned back to `home` afterwards.
    pub fn spawn(lovm: &Path, journal_dir: &Path, cpu: usize, home: usize) -> Result<Server> {
        let mut cmd = Command::new(lovm);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--v",
            "20",
            "--budget",
            "2",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("LOVM_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("LOVM_JOURNAL", journal_dir);
        // SAFETY: the hook runs in the forked child before exec and makes
        // one async-signal-safe system call; it touches no shared state.
        unsafe {
            cmd.pre_exec(|| {
                // The server must not outlive a benchmark killed mid-run.
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(Error::last_os_error());
                }
                Ok(())
            });
        }
        // A child inherits the CPU mask of the thread that starts it.
        pin_current_thread(cpu)?;
        let spawned = cmd.spawn();
        pin_current_thread(home)?;
        let mut child = spawned?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(Error::other(format!(
                "server did not start: `{}`",
                line.trim()
            )));
        };
        Ok(Server {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
        })
    }

    /// Process id, for `/proc`.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the server and waits until it is gone.
    pub fn kill(mut self) -> Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection with default socket options.
pub struct Conn {
    out: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn connect(addr: &str) -> Result<Conn> {
        let out = TcpStream::connect(addr)?;
        let reader = BufReader::new(out.try_clone()?);
        Ok(Conn {
            out,
            reader,
            line: String::new(),
        })
    }

    /// Writes request bytes (one or more newline-terminated lines).
    pub fn send(&mut self, requests: &str) -> Result<()> {
        self.out.write_all(requests.as_bytes())
    }

    /// Reads one response line, without its newline.
    pub fn recv(&mut self) -> Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}
