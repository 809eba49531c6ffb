//! `crash_restart`: time to serve again after a crash.
//!
//! The set-up builds an image (lists, a covering checkpoint, a long log
//! suffix of update ARUs, a final flush) and keeps its flushed bytes
//! only. Each op recovers a fresh copy of that image on the modeled
//! device with the default configuration (consistency check included)
//! and serves one read of an acknowledged block. No other workload
//! touches recovery.

use crate::common::{
    cpu_time, disk_layers, fingerprint, lld_config, more_setups, payload, ratio, EndToEnd, Layers,
    Params, BLOCK, SEGMENT,
};
use crate::device::{modeled, volatile, DeviceTimes, FlushedImage, VolatileDisk};
use crate::stats::{rss_peak_mib, Latencies, Report};
use ld_core::{BlockId, Ctx, Lld, LldError, LogicalDisk, Position, RecoveryReport};
use ld_disk::SmallRng;
use std::time::{Duration, Instant};

/// Device capacity: the set-up's log fits without wrapping, so the
/// image is the same for every seed's layout and the cleaner never runs.
pub const CAPACITY: u64 = 256 << 20;
const LISTS: usize = 2000;
const BLOCKS_PER_LIST: usize = 4;
const UPDATES: usize = 20_000;
const BLOCKS_PER_UPDATE: usize = 2;
/// Tail percentile reported as `op_tail_us`: a run has too few
/// restarts to support p99, and p75 keeps at least ten beyond it.
pub const TAIL_PCT: f64 = 75.0;
/// Fewest restarts a timed phase attempts, however long they take, so
/// a slower recovery still yields a p75 with ten samples beyond it.
const MIN_RESTARTS: u64 = 40;

/// The crashed image and what it must contain.
struct Image {
    flushed: FlushedImage,
    seed: u64,
    blocks: Vec<BlockId>,
    /// Acknowledged version of each block (index = list * 4 + position).
    versions: Vec<u64>,
    /// Device bytes written and user bytes written while building it.
    device_bytes: u64,
    user_bytes: u64,
}

impl Image {
    fn data(&self, i: usize) -> Vec<u8> {
        payload(self.seed, 0, i as u64, self.versions[i], BLOCK)
    }
}

/// Builds the image on the modeled device. ARUs commit lazily and one
/// flush at the end acknowledges them all.
fn setup(seed: u64, updates: usize) -> Result<Image, LldError> {
    let ld = Lld::format(modeled(VolatileDisk::new(CAPACITY)), &lld_config())?;
    let mut blocks = Vec::with_capacity(LISTS * BLOCKS_PER_LIST);
    let mut versions = vec![0u64; LISTS * BLOCKS_PER_LIST];
    for _ in 0..LISTS {
        let aru = ld.begin_aru()?;
        let list = ld.new_list(Ctx::Aru(aru))?;
        let mut pos = Position::First;
        for _ in 0..BLOCKS_PER_LIST {
            let b = ld.new_block(Ctx::Aru(aru), list, pos)?;
            ld.write(
                Ctx::Aru(aru),
                b,
                &payload(seed, 0, blocks.len() as u64, 0, BLOCK),
            )?;
            blocks.push(b);
            pos = Position::After(b);
        }
        ld.end_aru(aru)?;
    }
    ld.checkpoint()?;
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..updates {
        let list = rng.gen_index(LISTS);
        let first = rng.gen_index(BLOCKS_PER_LIST);
        let second = (first + 1 + rng.gen_index(BLOCKS_PER_LIST - 1)) % BLOCKS_PER_LIST;
        let aru = ld.begin_aru()?;
        for at in [first, second] {
            let i = list * BLOCKS_PER_LIST + at;
            versions[i] += 1;
            ld.write(
                Ctx::Aru(aru),
                blocks[i],
                &payload(seed, 0, i as u64, versions[i], BLOCK),
            )?;
        }
        ld.end_aru(aru)?;
    }
    ld.flush()?;
    let user_blocks = LISTS * BLOCKS_PER_LIST + updates * BLOCKS_PER_UPDATE;
    Ok(Image {
        flushed: volatile(ld.device()).crash_image(),
        seed,
        blocks,
        versions,
        device_bytes: ld.device_stats().expect("sim stats").bytes_written,
        user_bytes: (user_blocks * BLOCK) as u64,
    })
}

/// What one restart did, for the traced run.
struct Restart {
    report: RecoveryReport,
    device: DeviceTimes,
    serve_read: Duration,
    segments_in_use: u32,
}

/// One op: recover a fresh copy of the image and serve one read, which
/// must return the acknowledged payload.
fn restart(img: &Image, rng: &mut SmallRng, trace: bool) -> Result<(Restart, bool), LldError> {
    let dev = modeled(VolatileDisk::from_image(&img.flushed));
    dev.set_tracing(trace);
    let (ld, report) = Lld::recover_with(dev, &lld_config())?;
    let i = rng.gen_index(img.blocks.len());
    let mut buf = vec![0u8; BLOCK];
    let t0 = Instant::now();
    ld.read(Ctx::Simple, img.blocks[i], &mut buf)?;
    let serve_read = t0.elapsed();
    let r = Restart {
        report,
        device: ld.device().times(),
        serve_read,
        segments_in_use: ld.n_segments() - ld.free_segments(),
    };
    Ok((r, buf == img.data(i)))
}

/// Recovers the image once (without modeled latency) and checks every
/// acknowledged block. Returns the mismatches.
fn full_check(img: &Image) -> Result<u64, LldError> {
    let (ld, _) = Lld::recover_with(VolatileDisk::from_image(&img.flushed), &lld_config())?;
    let mut buf = vec![0u8; BLOCK];
    let mut bad = 0;
    for (i, &b) in img.blocks.iter().enumerate() {
        if ld.read(Ctx::Simple, b, &mut buf).is_err() || buf != img.data(i) {
            bad += 1;
        }
    }
    Ok(bad)
}

struct Phase {
    lat: Latencies,
    restarts: Vec<Restart>,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    wall: Duration,
    cpu: Duration,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.lat.us.len() as f64 / self.wall.as_secs_f64()
    }
}

fn timed_phase(img: &Image, rng: &mut SmallRng, dur: Duration, trace: bool) -> Phase {
    let mut ph = Phase {
        lat: Latencies::default(),
        restarts: Vec::new(),
        attempted: 0,
        failed: 0,
        mismatches: 0,
        wall: Duration::ZERO,
        cpu: Duration::ZERO,
    };
    let cpu0 = cpu_time();
    let start = Instant::now();
    while start.elapsed() < dur || ph.attempted < MIN_RESTARTS {
        let t0 = Instant::now();
        ph.attempted += 1;
        match restart(img, rng, trace) {
            Ok((r, matched)) => {
                ph.lat.push(t0.elapsed());
                ph.mismatches += u64::from(!matched);
                ph.restarts.push(r);
            }
            Err(e) => {
                eprintln!("crash_restart: restart failed: {e}");
                ph.failed += 1;
            }
        }
    }
    ph.wall = start.elapsed();
    ph.cpu = cpu_time().saturating_sub(cpu0);
    ph
}

pub fn run(p: &Params) -> Report {
    run_with(p, UPDATES)
}

fn run_with(p: &Params, updates: usize) -> Report {
    let t0 = Instant::now();
    let img = setup(p.seed, updates).expect("crash_restart set-up");
    let first_setup_s = t0.elapsed().as_secs_f64();
    let cfg = lld_config();
    let mut report = Report::default();
    report.detail.raw(
        "fingerprint",
        &fingerprint(
            p,
            "crash_restart",
            cfg.pipeline,
            cfg.cleaner.background,
            cfg.map_shards,
        ),
    );

    let mut rng = SmallRng::seed_from_u64(p.seed ^ 0x5EED);
    let untraced = p
        .trace
        .then(|| timed_phase(&img, &mut rng, p.untraced_lead(), false));
    let mut phase = timed_phase(&img, &mut rng, p.timed(), p.trace);
    let full = full_check(&img);

    let n = phase.restarts.len();
    let mut detail = ld_core::obs::json::Obj::new();
    detail
        .u64("samples", n as u64)
        .f64("timed_s", phase.wall.as_secs_f64())
        .u64("served_read_mismatches", phase.mismatches)
        .u64("blocks", img.blocks.len() as u64);
    match &full {
        Ok(bad) => detail.u64("durability_mismatches", *bad),
        Err(e) => detail.str("durability_error", &e.to_string()),
    };
    if let Some(r) = phase.restarts.first() {
        detail
            .u64("checkpoint_seq", r.report.checkpoint_seq)
            .u64("segments_replayed", u64::from(r.report.segments_replayed))
            .u64("committed_arus", r.report.committed_arus);
    }
    report.detail.raw("run", &detail.finish());
    report.correct = phase.mismatches == 0 && matches!(full, Ok(0));
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    if n == 0 {
        report.errors.push("no restart completed".into());
        return report;
    }

    let mean = |f: &dyn Fn(&Restart) -> f64| phase.restarts.iter().map(f).sum::<f64>() / n as f64;
    if !p.trace {
        let rss_mib = rss_peak_mib();
        let in_use = phase.restarts[0].segments_in_use;
        let write_amp = ratio(img.device_bytes as f64, img.user_bytes as f64);
        let space_amp = f64::from(in_use) * SEGMENT as f64 / (img.blocks.len() * BLOCK) as f64;
        drop(img);
        let setup_s = more_setups(
            first_setup_s,
            || setup(p.seed, updates).expect("crash_restart set-up"),
            drop,
        );
        EndToEnd {
            setup_s: &setup_s,
            ops_per_s: phase.ops_per_s(),
            lat: &mut phase.lat,
            tail_pct: TAIL_PCT,
            write_amp,
            space_amp,
            rss_mib,
        }
        .emit(&mut report);
        return report;
    }

    let mut l = Layers::default();
    let ms = |ns: u64| ns as f64 / 1e6;
    l.part_scaled(
        "recovery.snapshot_load_ms",
        mean(&|r| ms(r.report.snapshot_load_ns)),
        1e3,
    );
    l.part_scaled("recovery.scan_ms", mean(&|r| ms(r.report.scan_ns)), 1e3);
    l.part_scaled("recovery.replay_ms", mean(&|r| ms(r.report.replay_ns)), 1e3);
    l.part_scaled(
        "recovery.finalize_ms",
        mean(&|r| ms(r.report.finalize_ns)),
        1e3,
    );
    l.part(
        "recovery.serve_read_us",
        mean(&|r| r.serve_read.as_secs_f64() * 1e6),
    );
    l.close(phase.lat.mean());
    l.set(
        "recovery.segments_scanned",
        mean(&|r| f64::from(r.report.segments_scanned)),
    );
    l.set(
        "recovery.records_applied",
        mean(&|r| r.report.records_applied as f64),
    );
    let device = phase
        .restarts
        .iter()
        .fold(DeviceTimes::default(), |acc, r| acc.plus(&r.device));
    disk_layers(&mut l, &device, n as f64, phase.lat.us.iter().sum(), false);
    l.set(
        "proc.cpu_us_per_op",
        phase.cpu.as_secs_f64() * 1e6 / n as f64,
    );
    let untraced = untraced.expect("traced runs measure an untraced phase first");
    l.overhead(untraced.ops_per_s(), phase.ops_per_s());
    l.emit(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::assert_complete;

    #[test]
    fn smoke_runs_untraced_and_traced() {
        for trace in [false, true] {
            let p = Params {
                seed: 5,
                seconds: 0.5,
                trace,
            };
            let r = run_with(&p, 500);
            assert!(r.correct, "{}", r.detail.finish());
            assert_complete(&r, trace);
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
        }
    }
}
