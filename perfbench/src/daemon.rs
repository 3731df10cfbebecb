//! The serving daemon as the serve workloads see it: a `mtsp serve`
//! child process on a Unix socket, the client side of `mtsp-wire v1`,
//! the in-process reference transcripts the replies are checked against,
//! and in-process socket-pair replays for traced runs.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use mtsp_model::wire::parse_response;
use mtsp_serve::daemon::{serve_connection, serve_script};
use mtsp_serve::{FsyncPolicy, Quotas, Registry, ServeConfig};

/// Shard workers of the daemon under test: one per core of the 2-core
/// machine the benchmark is sized for.
pub const SHARDS: usize = 2;

/// Journal fsync policy of the daemon under test: `never`. On the shared
/// disk of the reference machine one fsync took from 0.1 ms to several
/// ms depending on other tenants' IO, which moved `serve-online`'s p90
/// fourfold between runs of the same code. The journal still records
/// every mutation before its reply; traced runs time `Wal::append` at
/// `always` on its own (`serve.wal_append_us`).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;

/// An in-process registry with the daemon's configuration: [`SHARDS`]
/// shards, unlimited quotas, journaling to `wal_dir` with [`FSYNC`].
pub fn registry(wal_dir: &Path) -> Result<Registry, String> {
    Registry::new(ServeConfig {
        shards: SHARDS,
        quotas: Quotas::unlimited(),
        wal_dir: Some(wal_dir.to_path_buf()),
        fsync: FSYNC,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("registry on {}: {e}", wal_dir.display()))
}

/// A running `mtsp serve`; killed and reaped when dropped.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Starts `mtsp serve` on `socket` with [`SHARDS`] shards, journaling
    /// to `wal_dir` with `--fsync` [`FSYNC`] and unlimited quotas, and
    /// returns once the socket accepts connections.
    pub fn spawn(bin: &Path, socket: &Path, wal_dir: &Path) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--shards", &SHARDS.to_string()])
            .arg("--wal-dir")
            .arg(wal_dir)
            .args(["--fsync", FSYNC.name()])
            .args(["--max-sessions", "0", "--max-tasks", "0"])
            .args(["--max-replans-per-sec", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let t0 = Instant::now();
        while UnixStream::connect(socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("mtsp serve exited during start-up: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(10) {
                return Err("mtsp serve did not accept connections within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(daemon)
    }

    /// Opens a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        UnixStream::connect(&self.socket)
            .and_then(Conn::new)
            .map_err(|e| format!("connect {}: {e}", self.socket.display()))
    }

    /// Peak resident set size of the daemon process, MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    /// The sending half.
    pub writer: UnixStream,
    /// The receiving half.
    pub reader: BufReader<UnixStream>,
}

impl Conn {
    /// Wraps a connected stream.
    pub fn new(stream: UnixStream) -> io::Result<Conn> {
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request (its line and body lines, each `\n`-terminated)
    /// and reads its reply.
    pub fn call(&mut self, request: &[u8]) -> Result<String, String> {
        self.writer
            .write_all(request)
            .and_then(|()| read_reply(&mut self.reader))
            .map_err(|e| format!("daemon connection: {e}"))
    }
}

/// Reads one reply — the response line and the body lines it announces —
/// exactly as received.
pub fn read_reply<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut reply = String::new();
    if reader.read_line(&mut reply)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a reply",
        ));
    }
    let body_lines = parse_response(reply.trim_end(), 1).map_or(0, |r| r.body_lines());
    for _ in 0..body_lines {
        if reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside a reply body",
            ));
        }
    }
    Ok(reply)
}

/// Splits a reply stream into its replies.
fn split_replies(transcript: &str) -> Vec<String> {
    let mut rest = transcript.as_bytes();
    let mut replies = Vec::new();
    while let Ok(reply) = read_reply(&mut rest) {
        replies.push(reply);
    }
    replies
}

/// Whether a reply fails its check against the reference reply `want`:
/// it differs from it, there is none, or it is an `ERR` — no request of
/// these workloads should fail.
pub fn reply_fails(got: &str, want: Option<&str>) -> bool {
    want != Some(got) || got.starts_with("ERR")
}

/// Failed requests of a reply stream checked against the reference
/// stream, reply by reply; a missing reply counts as a failure too.
pub fn count_failures(got: &[String], want: &[String]) -> u64 {
    let failed = got
        .iter()
        .enumerate()
        .filter(|(i, g)| reply_fails(g, want.get(*i).map(String::as_str)))
        .count();
    (failed + want.len().saturating_sub(got.len())) as u64
}

/// The reference replies of each connection script: the scripts served
/// one after another by `serve_script` on a fresh in-process registry
/// with the daemon's configuration. Connections address disjoint sessions, so
/// each script gets the replies it gets alone — the daemon's contract
/// that replies are a pure function of the request stream.
pub fn reference_replies(scripts: &[String], wal_dir: &Path) -> Result<Vec<Vec<String>>, String> {
    let reg = registry(wal_dir)?;
    let replies = scripts
        .iter()
        .map(|s| split_replies(&serve_script(&reg, s)))
        .collect();
    reg.shutdown();
    Ok(replies)
}

/// What [`socket_pair_replay`] measured.
#[derive(Debug)]
pub struct PairReplay {
    /// Replies per connection, in request order.
    pub replies: Vec<Vec<String>>,
    /// Round-trip time of every request, µs.
    pub rtt_us: Vec<f64>,
    /// Wall time of the whole replay, s.
    pub wall_s: f64,
    /// Highest shard queue depth the registry's gauges recorded.
    pub queue_depth_max: f64,
}

/// Serves each connection's requests through `serve_connection` over a
/// Unix socket pair — the daemon's connection loop without the process
/// boundary — with one closed-loop client thread per connection.
pub fn socket_pair_replay(reg: &Registry, conns: &[Vec<Vec<u8>>]) -> Result<PairReplay, String> {
    let io_err = |e: io::Error| format!("socket pair: {e}");
    let mut servers = Vec::new();
    let mut clients = Vec::new();
    for _ in conns {
        let (client, server) = UnixStream::pair().map_err(io_err)?;
        servers.push((BufReader::new(server.try_clone().map_err(io_err)?), server));
        clients.push(Conn::new(client).map_err(io_err)?);
    }
    let t0 = Instant::now();
    let results: Vec<io::Result<(Vec<String>, Vec<f64>)>> = std::thread::scope(|s| {
        for (reader, writer) in servers {
            // Ends at end of input, when its client thread drops the
            // connection.
            s.spawn(move || serve_connection(reg, reader, writer));
        }
        let clients: Vec<_> = clients
            .into_iter()
            .zip(conns)
            .map(|(mut conn, requests)| {
                s.spawn(move || -> io::Result<(Vec<String>, Vec<f64>)> {
                    let mut replies = Vec::with_capacity(requests.len());
                    let mut rtt_us = Vec::with_capacity(requests.len());
                    for request in requests {
                        let sent = Instant::now();
                        conn.writer.write_all(request)?;
                        replies.push(read_reply(&mut conn.reader)?);
                        rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok((replies, rtt_us))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut replay = PairReplay {
        replies: Vec::new(),
        rtt_us: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        queue_depth_max: max_queue_depth(&reg.render_gauges()),
    };
    for result in results {
        let (replies, rtt_us) = result.map_err(io_err)?;
        replay.replies.push(replies);
        replay.rtt_us.extend(rtt_us);
    }
    Ok(replay)
}

/// The highest `<gauge>.max=<n>` reading of a rendered gauge set.
fn max_queue_depth(gauges: &str) -> f64 {
    gauges
        .lines()
        .filter_map(|l| l.split_once(".max="))
        .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_split_on_announced_bodies() {
        let transcript = "OK OPEN s1\nOK STATS 2\na 1\nb 2\nERR 3 parse bad\n";
        assert_eq!(
            split_replies(transcript),
            [
                "OK OPEN s1\n",
                "OK STATS 2\na 1\nb 2\n",
                "ERR 3 parse bad\n"
            ]
        );
    }

    #[test]
    fn differing_missing_and_err_replies_fail() {
        let want: Vec<String> = ["OK ARRIVE 0\n", "OK EDGE\n", "ERR 3 parse x\n"]
            .map(String::from)
            .to_vec();
        assert_eq!(count_failures(&want[..2], &want[..2]), 0);
        // An ERR fails even when the reference says the same.
        assert_eq!(count_failures(&want, &want), 1);
        let corrupted = vec!["OK ARRIVE 1\n".to_string(), want[1].clone()];
        assert_eq!(count_failures(&corrupted, &want[..2]), 1);
        assert_eq!(count_failures(&want[..1], &want[..2]), 1);
    }

    #[test]
    fn gauge_maximum_is_read_from_every_shard() {
        let gauges = "q.shard0.current=0\nq.shard0.max=3\nq.shard1.current=1\nq.shard1.max=5\n";
        assert_eq!(max_queue_depth(gauges), 5.0);
    }
}
