//! What every workload shares: run parameters, the disk configuration,
//! payloads, the run fingerprint and the per-layer attribution.

use crate::device::{DeviceTimes, FLUSH_US, READ_US, WRITE_BYTES_PER_SEC};
use crate::stats::{median, Latencies, Report};
use ld_core::obs::json::Obj;
use ld_core::{LldConfig, LldStats};
use ld_disk::HistogramSnapshot;
use std::time::{Duration, Instant};

/// Block size of every workload.
pub const BLOCK: usize = 4096;
/// Segment size of every workload.
pub const SEGMENT: usize = 256 << 10;
/// How many times an untraced run builds its set-up state; `setup_s`
/// is the median, and the first build is the one the timed phase uses.
pub const SETUPS: usize = 3;

/// Command-line parameters of one run.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Params {
    pub fn timed(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The untraced phase a traced run measures first, so the tracing
    /// overhead is the difference between two phases of one run.
    pub fn untraced_lead(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 2.0)
    }
}

/// The disk configuration: every field at its default except the block
/// and segment sizes (the capacity is the device's).
pub fn lld_config() -> LldConfig {
    LldConfig {
        block_size: BLOCK,
        segment_bytes: SEGMENT,
        ..LldConfig::default()
    }
}

/// A block-sized payload naming `(seed, owner, index, version)`, so a
/// read-back identifies exactly which write it returned.
pub fn payload(seed: u64, owner: u64, index: u64, version: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = seed ^ owner.rotate_left(48) ^ index.rotate_left(24) ^ version;
    while out.len() < len {
        x = x
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out[..8].copy_from_slice(&owner.to_le_bytes());
    out[8..16].copy_from_slice(&index.to_le_bytes());
    out[16..24].copy_from_slice(&version.to_le_bytes());
    out.truncate(len);
    out
}

/// The revision of the source tree, when it is a git checkout.
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Host, inputs, device constants and the modes in effect, so runs are
/// compared like with like.
pub fn fingerprint(
    p: &Params,
    workload: &str,
    pipelined: bool,
    cleaner_background: bool,
    map_shards: usize,
) -> String {
    let cfg = lld_config();
    let mut env = Obj::new();
    let mut vars: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("LD_ARU_"))
        .collect();
    vars.sort();
    for (k, v) in &vars {
        env.str(k, v);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut o = Obj::new();
    o.str("workload", workload)
        .u64("seed", p.seed)
        .f64("seconds", p.seconds)
        .bool("trace", p.trace)
        .u64("nproc", nproc as u64)
        .str("git_revision", &git_revision())
        .u64("device_flush_us", FLUSH_US)
        .u64("device_write_bytes_per_s", WRITE_BYTES_PER_SEC)
        .u64("device_read_us", READ_US)
        .u64("block_bytes", BLOCK as u64)
        .u64("segment_bytes", SEGMENT as u64)
        .bool("pipelined", pipelined)
        .bool("cleaner_background", cleaner_background)
        .u64("map_shards", map_shards as u64)
        .u64("recovery_threads", cfg.recovery_threads as u64);
    match cfg.metrics_hz {
        Some(hz) => o.f64("metrics_hz", hz),
        None => o.null("metrics_hz"),
    };
    o.raw("env", &env.finish());
    o.finish()
}

/// Process CPU time (user + system), from `/proc/self/stat` at the
/// kernel's usual 100 ticks per second.
pub fn cpu_time() -> Duration {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?)
        })
        .unwrap_or(0);
    Duration::from_millis(ticks * 10)
}

/// The histogram of the samples recorded between two snapshots.
pub fn hist_since(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut h = *after;
    for (b, a) in h.buckets.iter_mut().zip(before.buckets.iter()) {
        *b -= a;
    }
    h.count -= before.count;
    h.sum -= before.sum;
    h
}

/// Median of a histogram in microseconds (a power-of-two bucket bound;
/// per-layer use only), 0 when empty.
pub fn hist_p50_us(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.p50() as f64 / 1e3
    }
}

/// Counter deltas over a timed phase, for the fields the benchmark reads.
pub fn lld_since(after: &LldStats, before: &LldStats) -> LldStats {
    let mut d = *after;
    macro_rules! sub {
        ($($f:ident),*) => { $( d.$f -= before.$f; )* };
    }
    sub!(
        reads,
        writes,
        arus_committed,
        segments_sealed,
        summary_bytes,
        data_blocks_written,
        blocks_relocated,
        cleaner_runs,
        backpressure_stalls,
        checkpoints,
        list_walk_steps,
        cache_hits,
        cache_misses,
        flush_batches,
        flush_batch_callers,
        writeids_recorded
    );
    d
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("rss_peak_mib", "MiB"),
];

/// The end-to-end metrics of an untraced run.
pub struct EndToEnd<'a> {
    pub setup_s: &'a [f64],
    pub ops_per_s: f64,
    /// Raw latency samples; the percentiles come from these.
    pub lat: &'a mut Latencies,
    pub tail_pct: f64,
    pub write_amp: f64,
    pub space_amp: f64,
    pub rss_mib: f64,
}

impl EndToEnd<'_> {
    /// Emits every metric, in [`END_TO_END`] order.
    pub fn emit(self, report: &mut Report) {
        let values = [
            Ok(median(self.setup_s)),
            Ok(self.ops_per_s),
            self.lat.percentile(50.0),
            self.lat.percentile(self.tail_pct),
            Ok(self.write_amp),
            Ok(self.space_amp),
            Ok(self.rss_mib),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            report.measured(name, value, unit);
        }
    }
}

/// Times `build` (whose result `teardown` disposes of, untimed)
/// `SETUPS - 1` more times and returns those times after `first_s`.
/// Runs call it after the timed phase and its checks, once the peak
/// memory has been read, so that figure is one build's.
pub fn more_setups<T>(
    first_s: f64,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> Vec<f64> {
    let mut times = vec![first_s];
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        teardown(built);
    }
    times
}

/// Every per-layer metric, in output order. A workload whose path does
/// not reach a layer reports it as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op_mean_us", "us"),
    ("unexplained_us_per_op", "us"),
    ("disk.busy_share", "share"),
    ("disk.flushes_per_op", "count"),
    ("disk.flush_us_per_op", "us"),
    ("disk.write_bytes_per_op", "B"),
    ("disk.write_us_per_op", "us"),
    ("disk.reads_per_op", "count"),
    ("disk.read_us_per_op", "us"),
    ("gc.commits_per_barrier", "count"),
    ("gc.queue_wait_us_per_op", "us"),
    ("gc.queue_wait_us_p50", "us"),
    ("gc.seal_us_p50", "us"),
    ("gc.barrier_wait_us_p50", "us"),
    ("log.segments_per_op", "count"),
    ("log.summary_bytes_per_op", "B"),
    ("cleaner.relocated_per_user_block", "count"),
    ("cleaner.passes", "count"),
    ("cleaner.backpressure_stalls", "count"),
    ("checkpoint.count", "count"),
    ("dedup.writeids_per_op", "count"),
    ("server.requests_per_op", "count"),
    ("server.bytes_per_op", "B"),
    ("cache.hit_ratio", "share"),
    ("map.walk_steps_per_op", "count"),
    ("minixfs.ld_calls_per_op", "count"),
    ("minixfs.self_us_per_op", "us"),
    ("core.ld_self_us_per_op", "us"),
    ("recovery.snapshot_load_ms", "ms"),
    ("recovery.scan_ms", "ms"),
    ("recovery.replay_ms", "ms"),
    ("recovery.finalize_ms", "ms"),
    ("recovery.segments_scanned", "count"),
    ("recovery.records_applied", "count"),
    ("recovery.serve_read_us", "us"),
    ("proc.cpu_us_per_op", "us"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "share"),
];

/// Per-layer values of a traced run, filled in by name; the result
/// lists every name of [`PER_LAYER`].
#[derive(Debug, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
    /// Names of the layer times that, with the unexplained remainder,
    /// add up to `op_mean_us`, each with its microseconds per unit.
    parts: Vec<(&'static str, f64)>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Records `value` (in microseconds) as one of the parts of the op
    /// latency.
    pub fn part(&mut self, name: &'static str, value: f64) {
        self.part_scaled(name, value, 1.0);
    }

    /// Records `value`, in units of `us_per_unit` microseconds, as one
    /// of the parts of the op latency.
    pub fn part_scaled(&mut self, name: &'static str, value: f64, us_per_unit: f64) {
        self.set(name, value);
        self.parts.push((name, us_per_unit));
    }

    /// Sets `op_mean_us` and the remainder the parts leave unexplained.
    pub fn close(&mut self, op_mean_us: f64) {
        let attributed: f64 = self.parts_us().sum();
        self.set("op_mean_us", op_mean_us);
        self.set("unexplained_us_per_op", op_mean_us - attributed);
    }

    /// The tracing overhead: the traced phase's throughput against the
    /// untraced phase's, of the same run.
    pub fn overhead(&mut self, untraced_ops_per_s: f64, traced_ops_per_s: f64) {
        self.set("trace.untraced_ops_per_s", untraced_ops_per_s);
        self.set("trace.ops_per_s", traced_ops_per_s);
        self.set(
            "trace.overhead_share",
            ratio(untraced_ops_per_s - traced_ops_per_s, untraced_ops_per_s),
        );
    }

    /// Moves every per-layer metric into `report`, and the attribution
    /// into its detail.
    pub fn emit(&self, report: &mut Report) {
        for (name, unit) in PER_LAYER {
            report.metric(name, self.get(name), unit);
        }
        let mut parts = Obj::new();
        for ((n, _), us) in self.parts.iter().zip(self.parts_us()) {
            parts.f64(&format!("{n} (us)"), us);
        }
        parts.f64("unexplained_us_per_op", self.get("unexplained_us_per_op"));
        let mut o = Obj::new();
        o.f64("op_mean_us", self.get("op_mean_us"))
            .raw("parts", &parts.finish());
        report.detail.raw("attribution", &o.finish());
        report.attribution = Some((self.get("op_mean_us"), self.parts()));
    }

    fn parts_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.parts.iter().map(|(n, scale)| self.get(n) * scale)
    }

    /// The parts and the remainder in microseconds.
    fn parts(&self) -> Vec<f64> {
        self.parts_us()
            .chain(std::iter::once(self.get("unexplained_us_per_op")))
            .collect()
    }
}

/// The device's per-layer metrics. When `parts`, its times are parts of
/// the op latency (the device is called only from inside ops).
pub fn disk_layers(l: &mut Layers, d: &DeviceTimes, ops: f64, op_total_us: f64, parts: bool) {
    let times = [
        ("disk.flush_us_per_op", d.flush_ns),
        ("disk.write_us_per_op", d.write_ns),
        ("disk.read_us_per_op", d.read_ns),
    ];
    for (name, ns) in times {
        let us = ratio(ns as f64 / 1e3, ops);
        if parts {
            l.part(name, us);
        } else {
            l.set(name, us);
        }
    }
    l.set("disk.flushes_per_op", ratio(d.flushes as f64, ops));
    l.set("disk.write_bytes_per_op", ratio(d.write_bytes as f64, ops));
    l.set("disk.reads_per_op", ratio(d.reads as f64, ops));
    l.set(
        "disk.busy_share",
        ratio(d.busy_ns() as f64 / 1e3, op_total_us),
    );
}

/// The logical disk's per-layer metrics from its counter deltas;
/// `user_blocks` is the number of blocks the workload wrote.
pub fn lld_layers(l: &mut Layers, s: &LldStats, ops: f64, user_blocks: f64) {
    l.set(
        "gc.commits_per_barrier",
        ratio(s.flush_batch_callers as f64, s.flush_batches as f64),
    );
    l.set("log.segments_per_op", ratio(s.segments_sealed as f64, ops));
    l.set(
        "log.summary_bytes_per_op",
        ratio(s.summary_bytes as f64, ops),
    );
    l.set(
        "cleaner.relocated_per_user_block",
        ratio(s.blocks_relocated as f64, user_blocks),
    );
    l.set("cleaner.passes", s.cleaner_runs as f64);
    l.set("cleaner.backpressure_stalls", s.backpressure_stalls as f64);
    l.set("checkpoint.count", s.checkpoints as f64);
    l.set(
        "dedup.writeids_per_op",
        ratio(s.writeids_recorded as f64, ops),
    );
    l.set(
        "cache.hit_ratio",
        ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
    );
    l.set(
        "map.walk_steps_per_op",
        ratio(s.list_walk_steps as f64, ops),
    );
}

/// Checks a run's report: every metric of its kind is present (or
/// named in an error), and a traced run's parts add up to its latency.
#[cfg(test)]
pub fn assert_complete(r: &Report, trace: bool) {
    let expected = if trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in expected {
        let printed = r.metrics.iter().any(|(n, _, u)| n == name && u == unit);
        let refused = r.errors.iter().any(|e| e.starts_with(&format!("{name}:")));
        assert!(printed || refused, "{name} missing");
    }
    assert_eq!(r.metrics.len() + r.errors.len(), expected.len());
    if trace {
        let (op_mean, parts) = r.attribution.as_ref().expect("attribution");
        let sum: f64 = parts.iter().sum();
        assert!(*op_mean > 0.0);
        assert!(
            (sum - op_mean).abs() <= 1e-9 * op_mean,
            "{sum} != {op_mean}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_what_the_runner_prints() {
        use ld_core::obs::json::{parse, Value};
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v = parse(&text).expect("valid JSON");
        let listed = |key: &str, field: &str| -> Vec<String> {
            v.get(key)
                .and_then(Value::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get(field)
                        .and_then(Value::as_str)
                        .expect(field)
                        .to_string()
                })
                .collect()
        };
        let ours = |l: &[(&str, &str)], i: usize| -> Vec<String> {
            l.iter().map(|m| [m.0, m.1][i].to_string()).collect()
        };
        assert_eq!(listed("end_to_end", "name"), ours(END_TO_END, 0));
        assert_eq!(listed("end_to_end", "unit"), ours(END_TO_END, 1));
        assert_eq!(listed("per_layer", "name"), ours(PER_LAYER, 0));
        assert_eq!(listed("per_layer", "unit"), ours(PER_LAYER, 1));
        assert_eq!(
            listed("workloads", "name"),
            ["net_sync_put", "fs_read_mostly", "crash_restart"]
        );
    }

    #[test]
    fn payloads_differ_by_every_coordinate() {
        let base = payload(1, 2, 3, 4, BLOCK);
        assert_eq!(base.len(), BLOCK);
        assert_eq!(base, payload(1, 2, 3, 4, BLOCK));
        for other in [
            payload(9, 2, 3, 4, BLOCK),
            payload(1, 9, 3, 4, BLOCK),
            payload(1, 2, 9, 4, BLOCK),
            payload(1, 2, 3, 9, BLOCK),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn layers_close_with_the_remainder() {
        let mut l = Layers::default();
        l.part("disk.flush_us_per_op", 600.0);
        l.part_scaled("recovery.scan_ms", 0.1, 1e3);
        l.close(1000.0);
        assert_eq!(l.get("unexplained_us_per_op"), 300.0);
        let mut r = Report::default();
        l.emit(&mut r);
        assert_complete(&r, true);
    }
}
