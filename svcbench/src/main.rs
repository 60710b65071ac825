//! `svcbench`: the seeded end-to-end benchmark of the `rd` query service.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path svcbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its inputs from the
//! seed, starts the service in a child process over loopback, drives it
//! from one lock-step client connection (a closed loop: the caller waits
//! for each reply), checks every answer, and prints one JSON object as
//! the last line of stdout. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics from a traced run and an
//! in-process replay of the same requests. See `svcbench/README.md`.
//! Scratch files go to `.bench_run/` in the working directory.

mod stats;
mod trace;
mod wire;
mod workload;

use stats::{median_f64, quantile, ratio, us};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{LayerStats, Spans, LAYERS};
use wire::{dir_bytes, drive, Limit, Sample, ServerProc, Tally};
use workload::{Expected, Inputs, Op, Workload, CONNECTIONS};

use rd_core::Value;
use rd_server::{Client, ServerConfig};

const USAGE: &str =
    "usage: svcbench --workload <hot_cached|cold_analytic|durable_write|editor_feedback> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per end-to-end run, `setup_s` being their median: at least
/// `SETUP_REPS.0`, and more (up to `.1`) until `SETUP_BUDGET` is spent,
/// so a set-up of milliseconds is sampled often enough to be steady.
const SETUP_REPS: (usize, usize) = (3, 50);
const SETUP_BUDGET: Duration = Duration::from_secs(2);

/// Hard limit on one run: past it the process exits (and the kernel
/// kills the server, see `wire::serve`).
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "--seconds takes an integer")?;
                if !(1..=120).contains(&s) {
                    return Err("--seconds must be between 1 and 120".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(e) = wire::serve(&args[1..]) {
            eprintln!("svcbench serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("svcbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("svcbench: run exceeded {} s; aborting", WATCHDOG.as_secs());
        std::process::exit(1);
    });
    if let Err(e) = run(&args) {
        eprintln!("svcbench: {e}");
        std::process::exit(1);
    }
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn layer(&mut self, layer: &str, s: &LayerStats) {
        self.add(format!("{layer}.calls"), s.calls as f64, "count");
        self.add(format!("{layer}.p50_us"), s.p50_us, "us");
        self.add(format!("{layer}.p99_us"), s.p99_us, "us");
        self.add(format!("{layer}.self_ms"), s.self_ms, "ms");
    }
}

/// A started service with its client connections.
struct Live {
    inputs: Inputs,
    /// `None` once [`Live::finish`] stopped it.
    server: Option<ServerProc>,
    /// Event-loop shards the server resolved.
    shards: usize,
    clients: Vec<Client>,
    /// Next stream position per connection.
    pos: Vec<usize>,
    data_dir: Option<PathBuf>,
    /// Acknowledged writes so far, `(connection, op)` in order.
    acked: Vec<(usize, Op)>,
    /// Operations and failures so far.
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Set-up as `setup_s` times it: generate the inputs, write the seed
/// fixture, start and bind the server (which seeds a fresh data
/// directory), connect, and warm the caches.
fn set_up(args: &Args, work: &Path, expected: &[Expected], k: usize) -> Result<Live, String> {
    let inputs = Inputs::generate(args.workload, args.seed)?;
    let fixture = work.join("seed.fix");
    fs::write(&fixture, rd_engine::render_fixture(&inputs.db))
        .map_err(|e| format!("cannot write the fixture: {e}"))?;
    let data_dir = args
        .workload
        .durable()
        .then(|| work.join(format!("data-{k}")));
    let server = ServerProc::spawn(work, &fixture, data_dir.as_deref())?;
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(&server.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot connect: {e}"))?;
    let mut live = Live {
        inputs,
        shards: server.shards,
        server: Some(server),
        clients,
        pos: vec![0; CONNECTIONS],
        data_dir,
        acked: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    live.load(
        expected,
        Limit::Ops(args.workload.warmup_ops()),
        Instant::now(),
        false,
    )?;
    Ok(live)
}

impl Live {
    fn server(&self) -> &ServerProc {
        self.server.as_ref().expect("the server is running")
    }

    /// Runs every connection in parallel until `limit`, timing answers
    /// against `epoch`. Returns the merged tally (also folded into the
    /// run's totals), the spans when `trace` is set, and the instant the
    /// last connection finished.
    fn load(
        &mut self,
        expected: &[Expected],
        limit: Limit,
        epoch: Instant,
        trace: bool,
    ) -> Result<(Tally, Spans, Instant), String> {
        let inputs = &self.inputs;
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.pos.iter_mut())
                .enumerate()
                .map(|(c, (client, pos))| {
                    s.spawn(move || {
                        let mut spans = Spans::new(epoch);
                        let recorder = trace.then_some(&mut spans);
                        let tally = drive(client, inputs, expected, c, pos, limit, epoch, recorder);
                        (c, tally, spans, Instant::now())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let mut total = Tally::default();
        let mut all_spans = Spans::new(epoch);
        let mut last = epoch;
        for (c, tally, spans, end) in results {
            self.acked.extend(tally.acked.iter().map(|op| (c, *op)));
            total.merge(tally);
            all_spans.absorb(spans);
            last = last.max(end);
        }
        self.attempted += total.attempted;
        self.failed += total.failed;
        for e in &total.errors {
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
        Ok((total, all_spans, last))
    }

    /// Raw value bytes of the rows acknowledged inserts carried, from
    /// acknowledgement `from` on: 8 per integer, the UTF-8 length per string.
    fn inserted_bytes(&self, from: usize) -> u64 {
        self.acked[from..]
            .iter()
            .filter_map(|(c, op)| match op {
                Op::Insert(j) => Some(&self.inputs.rows[*c][*j as usize]),
                _ => None,
            })
            .flatten()
            .map(|v| match v {
                Value::Str(s) => s.len() as u64,
                _ => 8,
            })
            .sum()
    }

    /// Stops the server cleanly; for a durable run, reopens its data
    /// directory with `Store::open` and counts every `Reserves` row by
    /// which the recovered table differs from the seed plus the acked
    /// inserts minus the acked deletes. Returns the data directory's
    /// final size (0 without one).
    fn finish(mut self) -> Result<(u64, Self), String> {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown()?;
        }
        let Some(dir) = self.data_dir.clone() else {
            return Ok((0, self));
        };
        let bytes = dir_bytes(&dir);
        let (db, _) = rd_store::Store::open(&dir).map_err(|e| format!("recovery failed: {e}"))?;
        let rows = |db: &rd_core::Database| -> std::collections::HashSet<Vec<Value>> {
            db.relation("Reserves")
                .map(|r| r.iter().map(|t| db.resolve_tuple(t).0).collect())
                .unwrap_or_default()
        };
        let mut want = rows(&self.inputs.db);
        for (c, op) in &self.acked {
            match op {
                Op::Insert(j) => {
                    want.insert(self.inputs.rows[*c][*j as usize].clone());
                }
                Op::Delete(j) => {
                    want.remove(&self.inputs.rows[*c][*j as usize]);
                }
                Op::Query(_) => {}
            }
        }
        let got = rows(&db);
        let mismatched = want.symmetric_difference(&got).count() as u64;
        if mismatched > 0 {
            self.failed += mismatched;
            self.errors.push(format!(
                "recovered Reserves differs from the acked writes in {mismatched} rows"
            ));
        }
        Ok((bytes, self))
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let work = Path::new(".bench_run").join(w.name());
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let inputs = Inputs::generate(w, args.seed)?;
    let expected = inputs.expected()?;
    let stream_hash = inputs.stream_hash();

    let mut metrics = Metrics::default();
    let done = if args.trace {
        traced(args, &work, &expected, &mut metrics)?
    } else {
        end_to_end(args, &work, &expected, &mut metrics)?
    };
    let live = &done.live;
    let config = config_json(args, &done, stream_hash);
    let result = result_json(live, &metrics);
    for m in &metrics.0 {
        eprintln!("{:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for e in &live.errors {
        eprintln!("svcbench: failure: {e}");
    }
    let results = Path::new(".bench_run").join("results");
    fs::create_dir_all(&results)
        .and_then(|()| {
            fs::write(
                results.join(format!(
                    "{}-seed{}-trace{}.json",
                    w.name(),
                    args.seed,
                    u8::from(args.trace)
                )),
                format!("{config}\n{result}\n"),
            )
        })
        .map_err(|e| format!("cannot write results: {e}"))?;
    println!("{config}");
    println!("{result}");
    Ok(())
}

/// Equal time blocks a measured interval is cut into.
const BLOCKS: u32 = 100;

/// Throughput and query latency over the quieter half of a measured
/// interval: of its [`BLOCKS`] time blocks, those in which the
/// hypervisor stole no more CPU from this machine than in the median
/// block (all of them where `/proc/stat` is unreadable); the rate and
/// the percentiles pool the kept blocks. On a shared 2-vCPU virtual machine
/// steal swings between 0 and 25% within seconds, and an 85 µs lock-step
/// round trip that meets a preemption takes milliseconds: unfiltered,
/// `hot_cached`'s p99 tracks the host, not the program.
struct Summary {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
    /// Mean steal over the kept blocks, percent (`None` if unknown).
    kept_steal_pct: Option<f64>,
}

fn summarize(samples: &[Sample], seconds: u64, ticks: &[Option<CpuTicks>]) -> Summary {
    let blocks = BLOCKS as usize;
    let steal: Vec<Option<f64>> = ticks
        .windows(2)
        .map(|w| Some(CpuTicks::steal_pct(w[0].as_ref()?, w[1].as_ref()?)))
        .collect();
    let kept = quiet(&steal);
    let span = Duration::from_secs(seconds).as_nanos();
    let mut answered = vec![0u64; blocks];
    let mut latencies = Vec::new();
    for s in samples {
        let b = ((u128::from(s.at) * blocks as u128) / span).min(blocks as u128 - 1) as usize;
        answered[b] += 1;
        if kept[b] && !s.write {
            latencies.push(s.ns);
        }
    }
    latencies.sort_unstable();
    let kept_blocks = kept.iter().filter(|k| **k).count();
    let kept_answers: u64 = (0..blocks).filter(|b| kept[*b]).map(|b| answered[b]).sum();
    let kept_secs = seconds as f64 * kept_blocks as f64 / blocks as f64;
    Summary {
        ops_per_s: ratio(kept_answers as f64, kept_secs),
        p50_us: us(quantile(&latencies, 0.50)),
        p99_us: us(quantile(&latencies, 0.99)),
        kept_steal_pct: (0..blocks)
            .filter(|b| kept[*b])
            .map(|b| steal[b])
            .sum::<Option<f64>>()
            .map(|total| total / kept_blocks as f64),
    }
}

/// Which of several intervals to keep: those in which the hypervisor
/// stole no more CPU than in the median one (all of them when a reading
/// is missing).
fn quiet(steal: &[Option<f64>]) -> Vec<bool> {
    match steal.iter().copied().collect::<Option<Vec<f64>>>() {
        Some(known) => {
            let median = median_f64(&mut known.clone());
            known.iter().map(|s| *s <= median).collect()
        }
        None => vec![true; steal.len()],
    }
}

/// Cumulative CPU ticks from `/proc/stat`: all of them, and those the
/// hypervisor gave to other guests (`steal`).
struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    fn read() -> Option<CpuTicks> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let ticks: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|t| t.parse().ok())
            .collect();
        Some(CpuTicks {
            total: ticks.iter().sum(),
            steal: *ticks.get(7)?,
        })
    }

    /// Percent of CPU time stolen between two readings.
    fn steal_pct(earlier: &CpuTicks, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(earlier.total);
        ratio(
            100.0 * later.steal.saturating_sub(earlier.steal) as f64,
            total as f64,
        )
    }

    /// Readings at `start` and at every block boundary of a measurement
    /// of `seconds` that began there.
    fn at_block_boundaries(start: Instant, seconds: u64) -> Vec<Option<CpuTicks>> {
        (0..=BLOCKS)
            .map(|i| {
                let at = start + Duration::from_secs(seconds) * i / BLOCKS;
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                CpuTicks::read()
            })
            .collect()
    }
}

/// What a finished run hands to the config block.
struct Finished {
    live: Live,
    /// Percent of CPU time stolen by the hypervisor while measuring, and
    /// over the blocks the end-to-end figures were taken from.
    steal_pct: (Option<f64>, Option<f64>),
    /// Every set-up time, seconds (end-to-end runs only).
    setup_secs: Vec<f64>,
    /// Query and write samples behind the reported percentiles.
    samples: (usize, usize),
}

/// Query (or write) round trips of `samples`, sorted.
fn sorted_latencies(samples: &[Sample], write: bool) -> Vec<u64> {
    let mut ns: Vec<u64> = samples
        .iter()
        .filter(|s| s.write == write)
        .map(|s| s.ns)
        .collect();
    ns.sort_unstable();
    ns
}

/// `--trace 0`: set up repeatedly (see [`SETUP_REPS`]), keep the last
/// service, and measure it untraced for `--seconds`.
fn end_to_end(
    args: &Args,
    work: &Path,
    expected: &[Expected],
    metrics: &mut Metrics,
) -> Result<Finished, String> {
    let (mut setup_secs, mut setup_steal) = (Vec::new(), Vec::new());
    let mut kept: Option<Live> = None;
    let budget = Instant::now() + SETUP_BUDGET;
    for k in 0..SETUP_REPS.1 {
        if k >= SETUP_REPS.0 && Instant::now() >= budget {
            break;
        }
        let ticks = CpuTicks::read();
        let started = Instant::now();
        let live = set_up(args, work, expected, k)?;
        setup_secs.push(started.elapsed().as_secs_f64());
        setup_steal.push(
            ticks
                .zip(CpuTicks::read())
                .map(|(a, b)| CpuTicks::steal_pct(&a, &b)),
        );
        if let Some(old) = kept.replace(live) {
            old.finish()?;
        }
    }
    let mut live = kept.expect("at least one set-up");
    let start = Instant::now();
    let limit = Limit::Until(start + Duration::from_secs(args.seconds));
    let (loaded, ticks) = std::thread::scope(|s| {
        let sampler = s.spawn(|| CpuTicks::at_block_boundaries(start, args.seconds));
        let loaded = live.load(expected, limit, start, false);
        (loaded, sampler.join())
    });
    let (tally, _, _) = loaded?;
    let ticks = ticks.map_err(|_| "the steal sampler panicked".to_string())?;
    let rss = live.server().peak_rss_kib()?;
    let (_, live) = live.finish()?;
    let summary = summarize(&tally.samples, args.seconds, &ticks);
    let whole = match (ticks.first(), ticks.last()) {
        (Some(Some(a)), Some(Some(b))) => Some(CpuTicks::steal_pct(a, b)),
        _ => None,
    };
    // Like the timings, set-up is taken over the quieter half.
    let mut quiet_setups: Vec<f64> = setup_secs
        .iter()
        .zip(quiet(&setup_steal))
        .filter_map(|(secs, keep)| keep.then_some(*secs))
        .collect();
    metrics.add("setup_s", median_f64(&mut quiet_setups), "s");
    metrics.add("ops_per_s", summary.ops_per_s, "1/s");
    metrics.add("query_p50_us", summary.p50_us, "us");
    metrics.add("query_p99_us", summary.p99_us, "us");
    metrics.add("peak_rss_mb", rss as f64 / 1024.0, "MB");
    let writes = tally.samples.iter().filter(|s| s.write).count();
    Ok(Finished {
        live,
        steal_pct: (whole, summary.kept_steal_pct),
        setup_secs,
        samples: (tally.samples.len() - writes, writes),
    })
}

/// Untraced and traced blocks alternate, so drift on the machine
/// affects both halves alike.
const TRACE_BLOCK_PAIRS: u32 = 5;

/// `--trace 1`: set up once; alternate untraced and traced blocks for
/// `--seconds`; stop the service; then replay the traced requests
/// in-process with a span around every layer call.
fn traced(
    args: &Args,
    work: &Path,
    expected: &[Expected],
    metrics: &mut Metrics,
) -> Result<Finished, String> {
    let w = args.workload;
    let mut live = set_up(args, work, expected, 0)?;
    let block = Duration::from_secs(args.seconds) / (2 * TRACE_BLOCK_PAIRS);
    let disk_before = live.data_dir.as_deref().map_or(0, dir_bytes);
    let acked_before = live.acked.len();
    live.clients[0]
        .stats_reset()
        .map_err(|e| format!("stats: {e}"))?;
    let ticks = CpuTicks::read();
    let epoch = Instant::now();
    let mut wire_spans = Spans::new(epoch);
    let mut plain: Vec<Sample> = Vec::new();
    let (mut plain_p50s, mut traced_p50s) = (Vec::new(), Vec::new());
    let mut traced_ranges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); CONNECTIONS];
    for b in 0..2 * TRACE_BLOCK_PAIRS {
        let trace = b % 2 == 1;
        let from = live.pos.clone();
        let (tally, spans, _) =
            live.load(expected, Limit::Until(Instant::now() + block), epoch, trace)?;
        let p50 = us(quantile(&sorted_latencies(&tally.samples, false), 0.50));
        if trace {
            traced_p50s.push(p50);
            wire_spans.absorb(spans);
            for (c, ranges) in traced_ranges.iter_mut().enumerate() {
                ranges.push((from[c], live.pos[c]));
            }
        } else {
            plain_p50s.push(p50);
            plain.extend(tally.samples);
        }
    }
    let steal_pct = ticks
        .zip(CpuTicks::read())
        .map(|(a, b)| CpuTicks::steal_pct(&a, &b));
    let server_stats = live.clients[0]
        .stats_reset()
        .map_err(|e| format!("stats: {e}"))?
        .sessions;
    let window_writes = (live.acked.len() - acked_before) as f64;
    let user_bytes = live.inserted_bytes(acked_before);
    let (disk_after, live) = live.finish()?;

    let mut replay_spans = Spans::new(epoch);
    let counts = trace::replay(
        &live.inputs,
        &traced_ranges,
        w.warmup_ops(),
        &work.join("replay-store"),
        &mut replay_spans,
    )?;
    let layers = trace::layer_stats(&replay_spans);
    let residual = trace::residuals(&wire_spans, &replay_spans);
    for layer in LAYERS {
        let s = if layer == "reactor.residual" {
            LayerStats::of(residual.clone(), residual.iter().sum())
        } else {
            layers.get(layer).cloned().unwrap_or_default()
        };
        metrics.layer(layer, &s);
    }
    let ss = &server_stats;
    let hit = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    metrics.add(
        "shared.parse_hit_ratio",
        hit(ss.cache_hits, ss.cache_misses),
        "ratio",
    );
    metrics.add(
        "shared.plan_hit_ratio",
        hit(ss.plan_hits, ss.plan_misses),
        "ratio",
    );
    metrics.add(
        "shared.eval_hit_ratio",
        hit(ss.eval_hits, ss.eval_misses),
        "ratio",
    );
    metrics.add(
        "shared.invalidations_per_write",
        ratio(ss.delta_invalidations as f64, window_writes),
        "ratio",
    );
    metrics.add(
        "exec.rows_examined_per_row_out",
        ratio(counts.rows_examined as f64, counts.rows_out as f64),
        "ratio",
    );
    let mut q_errors = counts.q_errors.clone();
    metrics.add("exec.root_q_error", median_f64(&mut q_errors), "ratio");
    metrics.add(
        "store.fsyncs_per_write",
        ratio(counts.fsyncs as f64, counts.writes as f64),
        "ratio",
    );
    metrics.add(
        "store.wal_bytes_per_write",
        ratio(counts.wal_bytes as f64, counts.writes as f64),
        "bytes",
    );
    let writes = sorted_latencies(&plain, true);
    metrics.add("write_p50_us", us(quantile(&writes, 0.50)), "us");
    metrics.add("write_p99_us", us(quantile(&writes, 0.99)), "us");
    metrics.add(
        "disk_bytes_per_user_byte",
        ratio(
            disk_after.saturating_sub(disk_before) as f64,
            user_bytes as f64,
        ),
        "ratio",
    );
    metrics.add(
        "error_rate",
        ratio(live.failed as f64, live.attempted as f64),
        "ratio",
    );
    let untraced = median_f64(&mut plain_p50s);
    let traced = median_f64(&mut traced_p50s);
    metrics.add("trace.query_p50_untraced_us", untraced, "us");
    metrics.add("trace.query_p50_traced_us", traced, "us");
    metrics.add(
        "trace.overhead_pct",
        100.0 * (ratio(traced, untraced) - 1.0),
        "%",
    );
    let samples = (sorted_latencies(&plain, false).len(), writes.len());
    wire_spans.absorb(replay_spans);
    wire_spans
        .write_tsv(&work.join("spans.tsv"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    Ok(Finished {
        live,
        steal_pct: (steal_pct, None),
        setup_secs: Vec::new(),
        samples,
    })
}

fn json_num(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite())
        .map_or_else(|| "null".into(), |v| v.to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(live: &Live, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        live.failed == 0 && live.attempted > 0,
        live.attempted.max(1),
        live.failed,
        body.join(", ")
    )
}

/// Everything needed to reproduce or compare a result.
fn config_json(args: &Args, done: &Finished, stream_hash: u64) -> String {
    let (live, samples) = (&done.live, done.samples);
    let server = ServerConfig::default();
    let rows: Vec<String> = live
        .inputs
        .sizes()
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    let flush = if args.workload.durable() {
        "fsync (sync_data) of the WAL before every acknowledged mutation, as shipped; \
         no group commit; no checkpoint during the run"
    } else {
        "none: in memory, no data directory"
    };
    let setups: Vec<String> = done.setup_secs.iter().map(|s| s.to_string()).collect();
    format!(
        "{{\"config\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_sha\": {}, \"source_digest\": \"{:016x}\", \"nproc\": {}, \
         \"connections\": {}, \"loop\": \"closed, lock-step, pipeline depth 1\", \
         \"server\": {{\"process\": \"child, rd_server::Server with ServerConfig::default()\", \
         \"shards\": {}, \"workers\": {}, \"parse_cache\": {}, \"eval_cache\": {}, \
         \"eval_cache_on\": {}, \"eval_cache_max_entry_bytes\": {}, \"plan_cache\": {}, \
         \"plan_cache_on\": {}, \"metrics_registry\": true, \"stream_threshold\": {}}}, \
         \"flush_policy\": {}, \"rows\": {{{}}}, \"distinct_requests\": {}, \
         \"stream_hash\": \"{:016x}\", \"setup_s\": [{}], \
         \"samples\": {{\"query\": {}, \"write\": {}}}, \"host_steal_pct\": {}, \
         \"host_steal_kept_pct\": {}, \"errors\": [{}]}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_sha()),
        source_digest(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        CONNECTIONS,
        live.shards,
        server.workers,
        server.parse_cache_capacity,
        server.eval_cache_capacity,
        server.eval_cache,
        server.eval_cache_max_entry_bytes,
        server.plan_cache_capacity,
        server.plan_cache,
        server.stream_threshold,
        json_str(flush),
        rows.join(", "),
        live.inputs.queries.len(),
        stream_hash,
        setups.join(", "),
        samples.0,
        samples.1,
        json_num(done.steal_pct.0),
        json_num(done.steal_pct.1),
        live.errors
            .iter()
            .map(|e| json_str(e))
            .collect::<Vec<_>>()
            .join(", "),
    )
}

/// `git rev-parse HEAD`, or `unknown` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// A hash of the sources the benchmark builds (identifies the code even
/// where there is no git metadata).
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    for dir in ["crates", "vendor", "svcbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.push(PathBuf::from("svcbench/Cargo.toml"));
    files.sort();
    files.iter().fold(stats::FNV_SEED, |h, f| {
        let h = stats::fnv(h, f.to_string_lossy().as_bytes());
        stats::fnv(h, &fs::read(f).unwrap_or_default())
    })
}
