//! A `LogicalDisk` wrapper that times every call a client (here
//! `MinixFs`) makes into the logical disk.

use ld_core::{AruId, BlockId, Ctx, ListId, LogicalDisk, ObsSnapshot, Position, Result};
use std::cell::Cell;
use std::time::Instant;

/// Forwards to `inner`; while tracing is on it counts the calls and the
/// wall time spent in them. Single-threaded by design: `MinixFs` takes
/// `&mut self`, so one thread drives it.
#[derive(Debug)]
pub struct TimedLd<L> {
    inner: L,
    on: Cell<bool>,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl<L: LogicalDisk> TimedLd<L> {
    pub fn new(inner: L) -> Self {
        TimedLd {
            inner,
            on: Cell::new(false),
            calls: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    pub fn inner(&self) -> &L {
        &self.inner
    }

    pub fn set_tracing(&self, on: bool) {
        self.on.set(on);
    }

    /// `(calls, nanoseconds)` spent in the logical disk while tracing.
    pub fn totals(&self) -> (u64, u64) {
        (self.calls.get(), self.ns.get())
    }

    fn timed<T>(&self, f: impl FnOnce(&L) -> T) -> T {
        if !self.on.get() {
            return f(&self.inner);
        }
        let t0 = Instant::now();
        let out = f(&self.inner);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }
}

impl<L: LogicalDisk> LogicalDisk for TimedLd<L> {
    fn begin_aru(&self) -> Result<AruId> {
        self.timed(|l| l.begin_aru())
    }
    fn end_aru(&self, aru: AruId) -> Result<()> {
        self.timed(|l| l.end_aru(aru))
    }
    fn abort_aru(&self, aru: AruId) -> Result<()> {
        self.timed(|l| l.abort_aru(aru))
    }
    fn new_list(&self, ctx: Ctx) -> Result<ListId> {
        self.timed(|l| l.new_list(ctx))
    }
    fn delete_list(&self, ctx: Ctx, list: ListId) -> Result<()> {
        self.timed(|l| l.delete_list(ctx, list))
    }
    fn new_block(&self, ctx: Ctx, list: ListId, pos: Position) -> Result<BlockId> {
        self.timed(|l| l.new_block(ctx, list, pos))
    }
    fn delete_block(&self, ctx: Ctx, block: BlockId) -> Result<()> {
        self.timed(|l| l.delete_block(ctx, block))
    }
    fn write(&self, ctx: Ctx, block: BlockId, data: &[u8]) -> Result<()> {
        self.timed(|l| l.write(ctx, block, data))
    }
    fn read(&self, ctx: Ctx, block: BlockId, buf: &mut [u8]) -> Result<()> {
        self.timed(|l| l.read(ctx, block, buf))
    }
    fn list_blocks(&self, ctx: Ctx, list: ListId) -> Result<Vec<BlockId>> {
        self.timed(|l| l.list_blocks(ctx, list))
    }
    fn flush(&self) -> Result<()> {
        self.timed(|l| l.flush())
    }
    fn end_aru_sync(&self, aru: AruId) -> Result<()> {
        self.timed(|l| l.end_aru_sync(aru))
    }
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }
    fn obs_snapshot(&self) -> Option<ObsSnapshot> {
        self.inner.obs_snapshot()
    }
}
