//! `fs_read_mostly`: path lookups and whole-file reads through
//! `MinixFs`, with a share of overwrites, over a working set twelve
//! times the logical disk's read cache.
//!
//! Directories and inodes fit in the 1,024-block cache; file data does
//! not, so most reads go to the modeled device. The workload bypasses
//! the server, the dedup journal and per-commit barriers.

use crate::common::{
    cpu_time, disk_layers, fingerprint, lld_config, lld_layers, lld_since, more_setups, payload,
    ratio, EndToEnd, Layers, Params, SEGMENT,
};
use crate::device::{modeled, Dev, DeviceTimes, VolatileDisk};
use crate::stats::{rss_peak_mib, Latencies, Report};
use crate::timed_ld::TimedLd;
use ld_core::{Lld, LldStats};
use ld_disk::SmallRng;
use ld_minixfs::{FsConfig, FsError, MinixFs};
use std::time::{Duration, Instant};

/// Device capacity. Every `MinixFs::flush` seals a mostly empty
/// segment, so a run uses a slot per 64 ops; 1 GiB holds the set-up and
/// a minute of ops without the log wrapping, so the cleaner never runs
/// here. Pages are allocated only when written.
pub const CAPACITY: u64 = 1 << 30;
const DIRS: usize = 64;
const FILES: usize = 6000;
const FILE_BYTES: usize = 8192;
/// Inode table size: the default of 4,096 cannot hold 6,000 files.
const INODES: u32 = 8192;
/// `MinixFs::flush` after every this many ops (set-up and timed).
const FLUSH_EVERY: u64 = 64;
/// Share of ops that read; the rest overwrite.
const READ_SHARE: f64 = 0.85;
/// Tail percentile reported as `op_tail_us`.
pub const TAIL_PCT: f64 = 99.0;

type Fs = MinixFs<TimedLd<Lld<Dev>>>;

fn path(i: usize) -> String {
    format!("/d{:02}/f{i:04}", i % DIRS)
}

struct State {
    fs: Fs,
    seed: u64,
    rng: SmallRng,
    /// Version of each file's current contents.
    versions: Vec<u64>,
    ops: u64,
    /// Whether to time the file-system calls (traced phase only).
    trace: bool,
    fs_ns: u64,
}

impl State {
    fn data(&self, file: usize) -> Vec<u8> {
        payload(self.seed, 0, file as u64, self.versions[file], FILE_BYTES)
    }

    fn fs_call<T>(&mut self, f: impl FnOnce(&mut Fs) -> T) -> T {
        if !self.trace {
            return f(&mut self.fs);
        }
        let t0 = Instant::now();
        let out = f(&mut self.fs);
        self.fs_ns += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Counts one op and flushes every [`FLUSH_EVERY`] ops.
    fn op_done(&mut self) -> Result<(), FsError> {
        self.ops += 1;
        if self.ops.is_multiple_of(FLUSH_EVERY) {
            self.fs_call(|fs| fs.flush())?;
        }
        Ok(())
    }

    /// One op. Returns whether a read matched its model (writes always
    /// "match").
    fn op(&mut self, buf: &mut [u8]) -> Result<bool, FsError> {
        let file = self.rng.gen_index(FILES);
        let read = self.rng.gen_f64() < READ_SHARE;
        let p = path(file);
        let ino = self.fs_call(|fs| fs.lookup(&p))?;
        let matched = if read {
            let n = self.fs_call(|fs| fs.read_at(ino, 0, buf))?;
            n == FILE_BYTES && buf == self.data(file).as_slice()
        } else {
            self.versions[file] += 1;
            let data = self.data(file);
            self.fs_call(|fs| fs.write_at(ino, 0, &data))?;
            true
        };
        self.op_done()?;
        Ok(matched)
    }
}

/// Builds the file tree on the modeled device, flushing every
/// [`FLUSH_EVERY`] ops as the timed phase does.
fn setup(seed: u64) -> Result<State, FsError> {
    let ld = Lld::format(modeled(VolatileDisk::new(CAPACITY)), &lld_config())?;
    let cfg = FsConfig {
        inode_count: INODES,
        ..FsConfig::default()
    };
    let mut s = State {
        fs: MinixFs::format(TimedLd::new(ld), cfg)?,
        seed,
        rng: SmallRng::seed_from_u64(seed),
        versions: vec![0; FILES],
        ops: 0,
        trace: false,
        fs_ns: 0,
    };
    for d in 0..DIRS {
        s.fs.mkdir(&format!("/d{d:02}"))?;
        s.op_done()?;
    }
    for file in 0..FILES {
        let ino = s.fs.create(&path(file))?;
        let data = s.data(file);
        s.fs.write_at(ino, 0, &data)?;
        s.op_done()?;
    }
    s.fs.flush()?;
    Ok(s)
}

struct Phase {
    lat: Latencies,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    writes: u64,
    wall: Duration,
    cpu: Duration,
    device: DeviceTimes,
    disk_bytes: u64,
    lld: LldStats,
    ld_calls: u64,
    ld_ns: u64,
    fs_ns: u64,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.lat.us.len() as u64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }
}

fn timed_phase(s: &mut State, dur: Duration, trace: bool) -> Phase {
    let lld = s.fs.ld().inner();
    let (dev0, disk0, lld0) = (
        lld.device().times(),
        lld.device_stats().expect("sim stats"),
        lld.stats(),
    );
    let (ld_calls0, ld_ns0) = s.fs.ld().totals();
    s.fs.ld().set_tracing(trace);
    lld.device().set_tracing(trace);
    s.trace = trace;
    s.fs_ns = 0;
    let versions0: u64 = s.versions.iter().sum();
    let mut buf = vec![0u8; FILE_BYTES];
    let (mut lat, mut attempted, mut failed, mut mismatches) = (Latencies::default(), 0, 0, 0);
    let cpu0 = cpu_time();
    let start = Instant::now();
    let deadline = start + dur;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        attempted += 1;
        match s.op(&mut buf) {
            Ok(matched) => {
                lat.push(t0.elapsed());
                mismatches += u64::from(!matched);
            }
            Err(e) => {
                eprintln!("fs_read_mostly: op failed: {e}");
                failed += 1;
            }
        }
    }
    let wall = start.elapsed();
    let cpu = cpu_time().saturating_sub(cpu0);
    s.trace = false;
    let lld = s.fs.ld().inner();
    let (ld_calls, ld_ns) = s.fs.ld().totals();
    Phase {
        lat,
        attempted,
        failed,
        mismatches,
        writes: s.versions.iter().sum::<u64>() - versions0,
        wall,
        cpu,
        device: lld.device().times().since(&dev0),
        disk_bytes: lld.device_stats().expect("sim stats").bytes_written - disk0.bytes_written,
        lld: lld_since(&lld.stats(), &lld0),
        ld_calls: ld_calls - ld_calls0,
        ld_ns: ld_ns - ld_ns0,
        fs_ns: s.fs_ns,
    }
}

/// Flushes, then runs the file system's and the logical disk's own
/// consistency checks. Returns the problems found.
fn final_checks(s: &mut State) -> Result<Vec<String>, FsError> {
    s.fs.flush()?;
    let mut problems = s.fs.verify()?.problems;
    let orphans = s.fs.ld().inner().check()?.orphan_blocks_freed;
    if !orphans.is_empty() {
        problems.push(format!("Lld::check freed {} orphan blocks", orphans.len()));
    }
    Ok(problems)
}

pub fn run(p: &Params) -> Report {
    let t0 = Instant::now();
    let mut s = setup(p.seed).expect("fs_read_mostly set-up");
    let first_setup_s = t0.elapsed().as_secs_f64();
    let lld = s.fs.ld().inner();
    // Space is read after the set-up: each flush seals a segment, so at
    // run end it would grow with the ops a run completes.
    let in_use = lld.n_segments() - lld.free_segments();
    let mut report = Report::default();
    report.detail.raw(
        "fingerprint",
        &fingerprint(
            p,
            "fs_read_mostly",
            lld.pipelined(),
            lld.cleaner_background(),
            lld.map_shards(),
        ),
    );

    let untraced = p
        .trace
        .then(|| timed_phase(&mut s, p.untraced_lead(), false));
    let mut phase = timed_phase(&mut s, p.timed(), p.trace);
    let checks = final_checks(&mut s);

    let mut detail = ld_core::obs::json::Obj::new();
    detail
        .u64("samples", phase.ops())
        .f64("timed_s", phase.wall.as_secs_f64())
        .u64("read_mismatches", phase.mismatches)
        .u64("overwrites", phase.writes)
        .u64("setup_segments_in_use", u64::from(in_use));
    match &checks {
        Ok(problems) => detail.u64("consistency_problems", problems.len() as u64),
        Err(e) => detail.str("consistency_error", &e.to_string()),
    };
    report.detail.raw("run", &detail.finish());
    report.correct = phase.mismatches == 0 && matches!(&checks, Ok(v) if v.is_empty());
    report.attempted = phase.attempted;
    report.failed = phase.failed;

    let ops = phase.ops() as f64;
    if !p.trace {
        let rss_mib = rss_peak_mib();
        drop(s);
        let setup_s = more_setups(
            first_setup_s,
            || setup(p.seed).expect("fs_read_mostly set-up"),
            drop,
        );
        let user_bytes = (phase.writes as usize * FILE_BYTES) as f64;
        EndToEnd {
            setup_s: &setup_s,
            ops_per_s: phase.ops_per_s(),
            lat: &mut phase.lat,
            tail_pct: TAIL_PCT,
            write_amp: ratio(phase.disk_bytes as f64, user_bytes),
            space_amp: f64::from(in_use) * SEGMENT as f64 / (FILES * FILE_BYTES) as f64,
            rss_mib,
        }
        .emit(&mut report);
        return report;
    }

    let mut l = Layers::default();
    let us = |ns: u64| ratio(ns as f64 / 1e3, ops);
    let device_us = us(phase.device.busy_ns());
    l.part("minixfs.self_us_per_op", us(phase.fs_ns) - us(phase.ld_ns));
    l.part("core.ld_self_us_per_op", us(phase.ld_ns) - device_us);
    disk_layers(&mut l, &phase.device, ops, phase.lat.us.iter().sum(), true);
    l.close(phase.lat.mean());
    let user_blocks = (phase.writes as usize * FILE_BYTES / crate::common::BLOCK) as f64;
    lld_layers(&mut l, &phase.lld, ops, user_blocks);
    l.set("minixfs.ld_calls_per_op", ratio(phase.ld_calls as f64, ops));
    l.set(
        "proc.cpu_us_per_op",
        ratio(phase.cpu.as_secs_f64() * 1e6, ops),
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
                seed: 9,
                seconds: 0.3,
                trace,
            };
            let r = run(&p);
            assert!(r.correct, "{}", r.detail.finish());
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
            assert_complete(&r, trace);
        }
    }
}
