//! `net_sync_put`: durable 4-block overwrites over TCP.
//!
//! Two `ld-client` connections, one thread each, run a closed loop of
//! tagged `Durability::Sync` transactions against an in-process
//! `ld-server`. Every commit travels frame → session → ARU → dedup
//! journal → group commit → seal → barrier → reply, and the barrier is
//! the modeled device's, so the device, not the CPU, sets the pace.

use crate::common::{
    cpu_time, disk_layers, fingerprint, hist_p50_us, hist_since, lld_config, lld_layers, lld_since,
    more_setups, payload, ratio, EndToEnd, Layers, Params, BLOCK, SEGMENT,
};
use crate::device::{modeled, volatile, Dev, DeviceTimes, FlushedImage, VolatileDisk};
use crate::stats::{rss_peak_mib, Latencies, Report};
use ld_client::{BlockRef, Client, ClientConfig, ClientError, Durability, ListRef, Txn};
use ld_core::{BlockId, Ctx, Lld, LldStats, LogicalDisk, ObsSnapshot, ServerCounters};
use ld_disk::SmallRng;
use ld_server::Server;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device capacity. At 48 MiB the inline cleaner's stalls set p99 (164
/// to 181 ms) and throughput swung 19 %; at 256 MiB it completes several
/// cycles per run without dominating.
pub const CAPACITY: u64 = 256 << 20;
/// Closed-loop connections, one thread each (the host has 2 cores).
const CONNS: usize = 2;
/// Blocks in each connection's working set (4 MiB).
const WORKING_BLOCKS: usize = 1024;
/// Blocks each transaction overwrites.
const BLOCKS_PER_TXN: usize = 4;
/// Blocks each preload transaction allocates.
const PRELOAD_PER_TXN: usize = 16;
/// Overwrites per connection before timing starts: about two passes of
/// the log, so the timed phase starts with the cleaner in its cycle.
const WARMUP_TXNS: usize = 1000;
/// How often the timed phase samples the segments in use.
const SPACE_SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Tail percentile reported as `op_tail_us`.
pub const TAIL_PCT: f64 = 99.0;

/// What a connection has been acknowledged: the payload each block of
/// its working set must read back with after a crash.
#[derive(Clone, Debug)]
pub struct Model {
    seed: u64,
    id: u64,
    blocks: Vec<u64>,
    /// Last acknowledged version of each block.
    acked: Vec<u64>,
    /// Version of a commit whose outcome the client never learned.
    unsure: Vec<Option<u64>>,
}

/// One connection and its model.
struct Conn {
    client: Client,
    rng: SmallRng,
    durability: Durability,
    next_version: u64,
    next_wid: u64,
    m: Model,
}

impl Conn {
    fn connect(
        addr: &str,
        id: u64,
        seed: u64,
        durability: Durability,
    ) -> Result<Conn, ClientError> {
        Ok(Conn {
            client: Client::connect(addr, id, 1, ClientConfig::default())?,
            rng: SmallRng::seed_from_u64(seed ^ id.wrapping_mul(0xA24B_AED4_963E_E407)),
            durability,
            next_version: 1,
            next_wid: 1,
            m: Model {
                seed,
                id,
                blocks: Vec::with_capacity(WORKING_BLOCKS),
                acked: vec![0; WORKING_BLOCKS],
                unsure: vec![None; WORKING_BLOCKS],
            },
        })
    }

    fn data(&self, index: usize, version: u64) -> Vec<u8> {
        payload(self.m.seed, self.m.id, index as u64, version, BLOCK)
    }

    fn commit(&mut self, txn: &Txn, durability: Durability) -> Result<Vec<u64>, ClientError> {
        let wid = self.next_wid;
        self.next_wid += 1;
        Ok(self.client.commit(txn, wid, durability)?.ids)
    }

    /// Allocates the working set: one list, blocks appended in order.
    fn preload(&mut self) -> Result<(), ClientError> {
        let mut list = None;
        while self.m.blocks.len() < WORKING_BLOCKS {
            let mut txn = Txn::new();
            let list_ref = match list {
                Some(id) => ListRef::Id(id),
                None => ListRef::Slot(txn.new_list()),
            };
            let mut pred = self.m.blocks.last().map(|&b| BlockRef::Id(b));
            let first = self.m.blocks.len();
            let n = PRELOAD_PER_TXN.min(WORKING_BLOCKS - first);
            for i in 0..n {
                let s = txn.new_block(list_ref, pred);
                txn.write(BlockRef::Slot(s), &self.data(first + i, 0));
                pred = Some(BlockRef::Slot(s));
            }
            let ids = self.commit(&txn, Durability::Sync)?;
            if list.is_none() {
                list = Some(ids[0]);
            }
            let base = ids.len() - n;
            self.m.blocks.extend_from_slice(&ids[base..]);
        }
        Ok(())
    }

    /// One op: overwrite 4 distinct random blocks in one commit.
    fn overwrite(&mut self) -> Result<(), ClientError> {
        let mut picked = [0usize; BLOCKS_PER_TXN];
        for i in 0..BLOCKS_PER_TXN {
            picked[i] = loop {
                let c = self.rng.gen_index(WORKING_BLOCKS);
                if !picked[..i].contains(&c) {
                    break c;
                }
            };
        }
        let version = self.next_version;
        self.next_version += 1;
        let mut txn = Txn::new();
        for &i in &picked {
            txn.write(BlockRef::Id(self.m.blocks[i]), &self.data(i, version));
        }
        match self.commit(&txn, self.durability) {
            Ok(_) => {
                for &i in &picked {
                    self.m.acked[i] = version;
                    self.m.unsure[i] = None;
                }
                Ok(())
            }
            Err(e) => {
                for &i in &picked {
                    self.m.unsure[i] = Some(version);
                }
                Err(e)
            }
        }
    }
}

/// A server over a fresh modeled disk.
struct Stack {
    server: Server<Dev>,
    ld: Arc<Lld<Dev>>,
}

impl Stack {
    fn start() -> Stack {
        let ld = Arc::new(
            Lld::format(modeled(VolatileDisk::new(CAPACITY)), &lld_config()).expect("format"),
        );
        let server = Server::start(Arc::clone(&ld), "127.0.0.1:0").expect("server start");
        Stack { server, ld }
    }

    fn stop(self) {
        let Stack { server, ld } = self;
        drop(ld);
        let (ld, flushed) = server.shutdown();
        flushed.expect("shutdown flush");
        drop(ld);
    }
}

/// Builds the set-up state: a server, each connection's preloaded
/// working set, and the warm-up overwrites, all on the modeled device
/// with the workload's own flush policy.
fn setup(seed: u64, warmup: usize, durability: Durability) -> (Stack, Vec<Conn>) {
    let stack = Stack::start();
    let addr = stack.server.local_addr().to_string();
    let conns = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CONNS as u64)
            .map(|id| {
                let addr = &addr;
                s.spawn(move || {
                    let mut c = Conn::connect(addr, id, seed, durability).expect("connect");
                    c.preload().expect("preload");
                    for _ in 0..warmup {
                        c.overwrite().expect("warm-up overwrite");
                    }
                    c
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("setup thread"))
            .collect()
    });
    (stack, conns)
}

/// What one timed phase saw.
struct Phase {
    lat: Latencies,
    /// Mean count of segments in use over the phase.
    segments_in_use: f64,
    attempted: u64,
    failed: u64,
    wall: Duration,
    cpu: Duration,
    device: DeviceTimes,
    disk_bytes: u64,
    lld: LldStats,
    server: ServerCounters,
    obs_before: ObsSnapshot,
    obs_after: ObsSnapshot,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.lat.us.len() as u64
    }

    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }
}

fn counters_since(a: ServerCounters, b: ServerCounters) -> ServerCounters {
    ServerCounters {
        ops_served: a.ops_served - b.ops_served,
        bytes_in: a.bytes_in - b.bytes_in,
        bytes_out: a.bytes_out - b.bytes_out,
        ..a
    }
}

/// Runs the closed loop on every connection for `dur`.
fn timed_phase(stack: &Stack, conns: &mut [Conn], dur: Duration) -> Phase {
    let dev = stack.ld.device();
    let (dev0, disk0) = (dev.times(), stack.ld.device_stats().expect("sim stats"));
    let (lld0, srv0) = (stack.ld.stats(), stack.server.stats());
    let obs0 = ld_core::LldInner::obs_snapshot(&stack.ld);
    let cpu0 = cpu_time();
    let start = Instant::now();
    let deadline = start + dur;
    let (per_conn, in_use): (Vec<(Latencies, u64, u64)>, Vec<u32>) = std::thread::scope(|s| {
        // The cleaner's cycle makes the count of segments in use a
        // sawtooth, so space is averaged over the phase, not read once.
        let sampler = s.spawn(|| {
            let mut in_use = Vec::new();
            while Instant::now() < deadline {
                in_use.push(stack.ld.n_segments() - stack.ld.free_segments());
                std::thread::sleep(SPACE_SAMPLE_EVERY);
            }
            in_use
        });
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let (mut lat, mut attempted, mut failed) = (Latencies::default(), 0, 0);
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        attempted += 1;
                        match c.overwrite() {
                            Ok(()) => lat.push(t0.elapsed()),
                            Err(e) => {
                                eprintln!("net_sync_put: commit failed: {e}");
                                failed += 1;
                            }
                        }
                    }
                    (lat, attempted, failed)
                })
            })
            .collect();
        let per_conn = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        (per_conn, sampler.join().expect("space sampler"))
    });
    let wall = start.elapsed();
    let mut phase = Phase {
        segments_in_use: in_use.iter().map(|&n| f64::from(n)).sum::<f64>() / in_use.len() as f64,
        lat: Latencies::default(),
        attempted: 0,
        failed: 0,
        wall,
        cpu: cpu_time().saturating_sub(cpu0),
        device: dev.times().since(&dev0),
        disk_bytes: stack.ld.device_stats().expect("sim stats").bytes_written - disk0.bytes_written,
        lld: lld_since(&stack.ld.stats(), &lld0),
        server: counters_since(stack.server.stats(), srv0),
        obs_before: obs0,
        obs_after: ld_core::LldInner::obs_snapshot(&stack.ld),
    };
    for (lat, attempted, failed) in per_conn {
        phase.lat.us.extend(lat.us);
        phase.attempted += attempted;
        phase.failed += failed;
    }
    phase
}

/// Recovers the flushed-bytes image and checks that every block reads
/// back with its last acknowledged payload. Returns the mismatches.
fn durability_mismatches(image: &FlushedImage, models: &[Model]) -> Result<u64, String> {
    let (ld, _) = Lld::recover_with(VolatileDisk::from_image(image), &lld_config())
        .map_err(|e| format!("recovery of the crash image failed: {e}"))?;
    let mut buf = vec![0u8; BLOCK];
    let mut bad = 0;
    for m in models {
        for (i, &b) in m.blocks.iter().enumerate() {
            if ld.read(Ctx::Simple, BlockId::new(b), &mut buf).is_err() {
                bad += 1;
                continue;
            }
            let ok = |v: u64| buf == payload(m.seed, m.id, i as u64, v, BLOCK);
            if !ok(m.acked[i]) && !m.unsure[i].is_some_and(ok) {
                bad += 1;
            }
        }
    }
    Ok(bad)
}

pub fn run(p: &Params) -> Report {
    run_with(p, WARMUP_TXNS, Durability::Sync)
}

/// The workload with `warmup` overwrites per connection before timing,
/// each committed with `durability` (the benchmark uses `Sync`; the
/// check's own test acknowledges `Lazy` commits to show it catches
/// them).
fn run_with(p: &Params, warmup: usize, durability: Durability) -> Report {
    let t0 = Instant::now();
    let (stack, mut conns) = setup(p.seed, warmup, durability);
    let first_setup_s = t0.elapsed().as_secs_f64();

    let mut report = Report::default();
    report.detail.raw(
        "fingerprint",
        &fingerprint(
            p,
            "net_sync_put",
            stack.ld.pipelined(),
            stack.ld.cleaner_background(),
            stack.ld.map_shards(),
        ),
    );

    let untraced = p
        .trace
        .then(|| timed_phase(&stack, &mut conns, p.untraced_lead()));
    if p.trace {
        stack.ld.device().set_tracing(true);
    }
    let mut phase = timed_phase(&stack, &mut conns, p.timed());

    // The crash: freeze the flushed bytes before shutdown flushes.
    let image = volatile(stack.ld.device()).crash_image();
    let models: Vec<Model> = conns.into_iter().map(|c| c.m).collect();
    Stack::stop(stack);
    let mismatches = durability_mismatches(&image, &models);

    let ops = phase.ops() as f64;
    let user_bytes = ops * (BLOCKS_PER_TXN * BLOCK) as f64;
    let live_bytes = (CONNS * WORKING_BLOCKS * BLOCK) as f64;
    report.attempted = phase.attempted;
    report.failed = phase.failed;
    let mut detail = ld_core::obs::json::Obj::new();
    detail
        .u64("samples", phase.ops())
        .f64("timed_s", phase.wall.as_secs_f64())
        .f64("segments_in_use_mean", phase.segments_in_use)
        .u64("segment_bytes", SEGMENT as u64);
    match &mismatches {
        Ok(n) => detail.u64("durability_mismatches", *n),
        Err(e) => detail.str("durability_error", e),
    };
    report.correct = matches!(mismatches, Ok(0));
    report.detail.raw("run", &detail.finish());

    if !p.trace {
        let rss_mib = rss_peak_mib();
        let setup_s = more_setups(
            first_setup_s,
            || setup(p.seed, warmup, durability).0,
            Stack::stop,
        );
        EndToEnd {
            setup_s: &setup_s,
            ops_per_s: phase.ops_per_s(),
            lat: &mut phase.lat,
            tail_pct: TAIL_PCT,
            write_amp: ratio(phase.disk_bytes as f64, user_bytes),
            space_amp: phase.segments_in_use * SEGMENT as f64 / live_bytes,
            rss_mib,
        }
        .emit(&mut report);
        return report;
    }

    let gc = |name: &str| {
        let h = |o: &ObsSnapshot| *o.histogram(name).expect("gc histogram");
        hist_since(&h(&phase.obs_after), &h(&phase.obs_before))
    };
    let per_op = |x: f64| ratio(x, ops);
    let mut l = Layers::default();
    disk_layers(&mut l, &phase.device, ops, phase.lat.us.iter().sum(), true);
    // A caller queued behind another batch does no device work of its
    // own, so its queue wait is disjoint from the device parts.
    let queue_wait = gc("gc_queue_wait_ns");
    l.part(
        "gc.queue_wait_us_per_op",
        per_op(queue_wait.sum as f64 / 1e3),
    );
    l.close(phase.lat.mean());
    lld_layers(&mut l, &phase.lld, ops, ops * BLOCKS_PER_TXN as f64);
    l.set("gc.queue_wait_us_p50", hist_p50_us(&queue_wait));
    l.set("gc.seal_us_p50", hist_p50_us(&gc("gc_seal_ns")));
    l.set(
        "gc.barrier_wait_us_p50",
        hist_p50_us(&gc("gc_barrier_wait_ns")),
    );
    l.set(
        "server.requests_per_op",
        per_op(phase.server.ops_served as f64),
    );
    l.set(
        "server.bytes_per_op",
        per_op((phase.server.bytes_in + phase.server.bytes_out) as f64),
    );
    l.set("proc.cpu_us_per_op", per_op(phase.cpu.as_secs_f64() * 1e6));
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
                seed: 7,
                seconds: 0.3,
                trace,
            };
            let r = run_with(&p, 20, Durability::Sync);
            assert!(r.correct, "{}", r.detail.finish());
            assert_complete(&r, trace);
            assert_eq!(r.failed, 0);
            assert!(r.attempted > 0);
        }
    }

    #[test]
    fn acknowledging_before_a_flush_fails_the_check() {
        let p = Params {
            seed: 3,
            seconds: 0.2,
            trace: false,
        };
        let r = run_with(&p, 0, Durability::Lazy);
        assert!(r.attempted > 0);
        assert!(!r.correct, "lazy acknowledgements must not pass the check");
    }
}
