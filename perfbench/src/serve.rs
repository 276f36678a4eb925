//! `distperm serve` through [`serve_session`] over in-memory pipes: a
//! closed loop with a fixed window of outstanding batches, and an open
//! loop whose generator sends on schedule whatever the replies do.
//! Every reply line is checked against the reference answers.

use crate::index::{Class, Traffic};
use crate::THREADS;
use dp_index::serve::{
    serve_resilient, serve_session, ApproxRequest, BatchOptions, FaultPlan, Request, ServeRequest,
    SessionConfig,
};
use dp_index::FlatDistPermIndex;
use dp_metric::{F64Dist, L2};
use std::io::{self, BufRead, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// The session configuration of `distperm serve --threads 2 --queue 64`:
/// a queue deep enough that the open loop's bursts (a generator
/// descheduled for a moment on a small machine) are absorbed at half
/// load, CLI defaults otherwise (no deadline).
pub fn session_config() -> SessionConfig {
    SessionConfig { threads: THREADS, queue_capacity: 64, ..SessionConfig::default() }
}

/// Batches the closed loop keeps outstanding: the CLI's default queue
/// depth, well inside the session queue, so a shed there is a fault.
const CLOSED_WINDOW: usize = 4;

/// The session's input end: blocks on the channel, EOF once every
/// sender is gone.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(out.len());
        out[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for PipeReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.buf.len() {
            self.buf = self.rx.recv().unwrap_or_default();
            self.pos = 0;
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// One reply line as the client sees it.
struct Reply {
    line: String,
    at: Instant,
    /// Time spent inside the writer so far in the session.
    writer_busy: Duration,
}

/// The session's output end: stamps each completed line with the time
/// it was written and hands the lines over when the session flushes
/// (after every batch), so the client wakes once per batch, not per line.
struct PipeWriter {
    tx: Sender<Vec<Reply>>,
    line: Vec<u8>,
    pending: Vec<Reply>,
    busy: Duration,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        for &b in buf {
            if b == b'\n' {
                let line = String::from_utf8_lossy(&self.line).into_owned();
                self.line.clear();
                let writer_busy = self.busy + start.elapsed();
                self.pending.push(Reply { line, at: Instant::now(), writer_busy });
            } else {
                self.line.push(b);
            }
        }
        self.busy += start.elapsed();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let start = Instant::now();
        if !self.pending.is_empty() {
            // A client that stopped listening is not the writer's fault.
            let _ = self.tx.send(std::mem::take(&mut self.pending));
        }
        self.busy += start.elapsed();
        Ok(())
    }
}

/// What one session's client observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Queries sent.
    pub sent: u64,
    /// Queries whose reply failed its check, was missing, shed, failed
    /// or an error.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Per batch: latency from its due time to its `done` line, seconds
    /// (open loop).
    pub latency: Vec<f64>,
    /// Per batch `queued_us`, seconds.
    pub queue_wait: Vec<f64>,
    /// Per batch `elapsed_us`, seconds.
    pub batch: Vec<f64>,
    /// Per batch time inside the reply writer, seconds.
    pub write: Vec<f64>,
    /// Per batch generator lateness, seconds (open loop).
    pub lag: Vec<f64>,
    /// First send to last `done`, seconds.
    pub wall: f64,
    /// Batch due and done instants, for spans (open loop).
    pub spans: Vec<(Instant, Instant)>,
}

impl LoopStats {
    fn fail(&mut self, n: u64, what: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }
}

/// Fault injected into the client's view of the replies (smoke runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    None,
    /// Corrupts the first `ok` reply before it is checked.
    Answer,
}

/// Queries per served batch: one whole mix unit, so every batch holds
/// the same kinds of query and batch latencies form one mode.
pub const BATCH: usize = crate::index::MIX;

/// Position in the traffic of query `i` of batch `b` (batches cycle
/// through the query set).
fn query_of(traffic: &Traffic, b: usize, i: usize) -> usize {
    (b * BATCH + i) % traffic.len()
}

/// Batch `b` as protocol text: `begin`, its [`BATCH`] queries, `end`.
fn batch_text(traffic: &Traffic, b: usize) -> Vec<u8> {
    let mut s = format!("begin b{b}\n");
    for i in 0..BATCH {
        s.push_str(&traffic.lines[query_of(traffic, b, i)]);
        s.push('\n');
    }
    s.push_str("end\n");
    s.into_bytes()
}

/// Reads replies until the session closes its output, checking each.
/// `on_done(batch, at)` fires on every `done` line and may send more.
fn collect(
    out_rx: &Receiver<Vec<Reply>>,
    traffic: &Traffic,
    inject: Inject,
    stats: &mut LoopStats,
    mut on_done: impl FnMut(usize, Instant, &mut LoopStats),
) {
    let mut replied = 0u64;
    let mut busy_at_last_done = Duration::ZERO;
    let mut current: Option<usize> = None;
    let mut corrupt = inject == Inject::Answer;
    for reply in out_rx.iter().flatten() {
        let mut words = reply.line.splitn(3, ' ');
        let verb = words.next().unwrap_or("");
        let arg = words.next().unwrap_or("");
        let rest = words.next().unwrap_or("");
        match verb {
            "batch" => {
                current = arg.strip_prefix('b').and_then(|b| b.parse().ok());
                let queued = field(rest, "queued_us=").unwrap_or(f64::NAN) * 1e-6;
                stats.queue_wait.push(queued);
            }
            "ok" => {
                replied += 1;
                let expected = current
                    .zip(arg.parse::<usize>().ok())
                    .filter(|&(_, i)| i < BATCH)
                    .map(|(b, i)| &traffic.replies[query_of(traffic, b, i)]);
                let mut got = rest.to_string();
                if std::mem::take(&mut corrupt) {
                    got.push_str(" 0:0");
                }
                if expected != Some(&got) {
                    stats.fail(1, || {
                        format!("reply `{}` differs from the reference answer", reply.line)
                    });
                }
            }
            "done" => {
                let b = arg.strip_prefix('b').and_then(|b| b.parse().ok()).unwrap_or(usize::MAX);
                stats.batch.push(field(rest, "elapsed_us=").unwrap_or(f64::NAN) * 1e-6);
                stats.write.push((reply.writer_busy - busy_at_last_done).as_secs_f64());
                busy_at_last_done = reply.writer_busy;
                current = None;
                on_done(b, reply.at, stats);
            }
            "shed" => {
                // A shed batch never gets `done`; count it failed and let
                // the client move on as if it had finished.
                replied += BATCH as u64;
                stats.fail(BATCH as u64, || format!("batch shed: `{}`", reply.line));
                let b = arg.strip_prefix('b').and_then(|b| b.parse().ok()).unwrap_or(usize::MAX);
                on_done(b, reply.at, stats);
            }
            "failed" => {
                replied += 1;
                stats.fail(1, || format!("session reported `{}`", reply.line));
            }
            "error" => stats.fail(1, || format!("session reported `{}`", reply.line)),
            _ => {}
        }
    }
    let missing = stats.sent.saturating_sub(replied);
    if missing > 0 {
        stats.fail(missing, || format!("{missing} queries got no reply"));
    }
}

/// The number after `key` in a reply line.
fn field(text: &str, key: &str) -> Option<f64> {
    text.split(' ').find_map(|w| w.strip_prefix(key)).and_then(|v| v.parse().ok())
}

/// Runs one session over `index` with `client` driving its pipes.
fn session<T: Send>(
    index: &FlatDistPermIndex<L2>,
    client: impl FnOnce(Sender<Vec<u8>>, Receiver<Vec<Reply>>) -> T + Send,
) -> T {
    let (in_tx, in_rx) = channel::<Vec<u8>>();
    let (out_tx, out_rx) = channel::<Vec<Reply>>();
    let dim = index.points().dim();
    let config = session_config();
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let reader = PipeReader { rx: in_rx, buf: Vec::new(), pos: 0 };
            let mut writer = PipeWriter {
                tx: out_tx,
                line: Vec::new(),
                pending: Vec::new(),
                busy: Duration::ZERO,
            };
            serve_session::<[f64], _, _, _>(
                index,
                dim,
                reader,
                &mut writer,
                &config,
                &FaultPlan::none(),
            )
        });
        let out = client(in_tx, out_rx);
        server.join().expect("serve session thread panicked").expect("in-memory pipes do not fail");
        out
    })
}

/// Closed loop: keeps `window` batches outstanding (never more than the
/// session queue holds) until `batches` are done.
pub fn closed_loop(
    index: &FlatDistPermIndex<L2>,
    traffic: &Traffic,
    batches: usize,
    inject: Inject,
) -> LoopStats {
    let window = CLOSED_WINDOW.min(session_config().queue_capacity).min(batches);
    session(index, |in_tx, out_rx| {
        let mut stats = LoopStats::default();
        let mut input = Some(in_tx);
        let start = Instant::now();
        let send = |input: &Option<Sender<Vec<u8>>>, stats: &mut LoopStats| {
            let b = stats.sent as usize / BATCH;
            if let Some(tx) = input {
                let _ = tx.send(batch_text(traffic, b));
            }
            stats.sent += BATCH as u64;
        };
        for _ in 0..window {
            send(&input, &mut stats);
        }
        let mut done = 0;
        collect(&out_rx, traffic, inject, &mut stats, |_, at, stats| {
            done += 1;
            if (stats.sent as usize) < batches * BATCH {
                send(&input, stats);
            }
            if done == batches {
                stats.wall = at.duration_since(start).as_secs_f64();
                input = None;
            }
        });
        stats
    })
}

/// Open loop: one generator thread sends batch `b` at `start + b/rate`
/// whether or not earlier replies have arrived; latency runs from that
/// due time.
pub fn open_loop(
    index: &FlatDistPermIndex<L2>,
    traffic: &Traffic,
    batches: usize,
    rate: f64,
    inject: Inject,
) -> LoopStats {
    session(index, |in_tx, out_rx| {
        let start = Instant::now() + Duration::from_millis(2);
        let due = |b: usize| start + Duration::from_secs_f64(b as f64 / rate);
        let mut stats = LoopStats { sent: (batches * BATCH) as u64, ..LoopStats::default() };
        std::thread::scope(|s| {
            let generator = s.spawn(move || {
                let mut lag = Vec::with_capacity(batches);
                for b in 0..batches {
                    let at = due(b);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let _ = in_tx.send(batch_text(traffic, b));
                    lag.push(Instant::now().saturating_duration_since(at).as_secs_f64());
                }
                lag
            });
            let mut last = start;
            collect(&out_rx, traffic, inject, &mut stats, |b, at, stats| {
                if b < batches {
                    stats.latency.push(at.saturating_duration_since(due(b)).as_secs_f64());
                    stats.spans.push((due(b), at));
                }
                last = last.max(at);
            });
            stats.lag = generator.join().expect("generator thread panicked");
            stats.wall = last.saturating_duration_since(start).as_secs_f64();
        });
        stats
    })
}

/// One mixed batch through the resilient work-stealing engine the
/// session uses.  Returns responses in query order.
pub fn stealing_batch(
    index: &FlatDistPermIndex<L2>,
    traffic: &Traffic,
    queries: usize,
) -> Vec<dp_index::serve::Response<F64Dist>> {
    let rows: Vec<&[f64]> = (0..queries).map(|i| traffic.queries.row(i)).collect();
    let radius = F64Dist::new(traffic.radius);
    let request = |i: usize| match Class::of(i) {
        Class::Exact => ServeRequest::Exact(Request::Knn { k: crate::KNN }),
        Class::Approx => {
            ServeRequest::Approx(ApproxRequest::Knn { k: crate::KNN, frac: crate::FRAC })
        }
        Class::Range => ServeRequest::Approx(ApproxRequest::Range { radius, frac: crate::FRAC }),
    };
    let report = serve_resilient(
        index,
        &rows,
        request,
        &BatchOptions::with_threads(THREADS),
        &FaultPlan::none(),
    );
    report.ok_responses().unwrap_or_default()
}
