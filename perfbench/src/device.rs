//! The modeled device every workload runs on, and the timing wrapper
//! the traced run puts around it.
//!
//! Stack, outermost first: [`TimedDisk`] → `LatencyDisk` (wall-clock
//! service time) → `SimDisk` (byte and call counters) →
//! [`VolatileDisk`] (a write cache that loses unflushed bytes at a
//! crash).

use ld_disk::{BlockDevice, DiskModel, DiskStatsSnapshot, LatencyDisk, SimDisk};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock cost of one write barrier.
pub const FLUSH_US: u64 = 500;
/// Modeled sequential write bandwidth.
pub const WRITE_BYTES_PER_SEC: u64 = 400 << 20;
/// Wall-clock cost of one read call (a media read).
pub const READ_US: u64 = 100;

/// Granularity of the volatile device's page table.
const PAGE: usize = 4096;

/// The bytes that survived a crash: a page table of flushed pages.
/// Cloning shares the pages, so every restart can start from its own
/// copy of a large image without copying it.
#[derive(Clone, Debug)]
pub struct FlushedImage {
    capacity: u64,
    pages: Vec<Option<Arc<[u8]>>>,
}

#[derive(Debug)]
struct Pages {
    durable: Vec<Option<Arc<[u8]>>>,
    pending: BTreeMap<usize, Box<[u8]>>,
}

/// A device with a volatile write cache: a write is visible to reads at
/// once but becomes durable only at the next [`flush`](BlockDevice::flush).
/// [`crash_image`](VolatileDisk::crash_image) yields the flushed bytes
/// alone, which is what a power cut leaves behind.
#[derive(Debug)]
pub struct VolatileDisk {
    capacity: u64,
    pages: Mutex<Pages>,
}

impl VolatileDisk {
    /// An all-zero device of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        VolatileDisk::from_image(&FlushedImage {
            capacity,
            pages: vec![None; (capacity as usize).div_ceil(PAGE)],
        })
    }

    /// A device whose durable contents are `image` and whose cache is
    /// empty.
    pub fn from_image(image: &FlushedImage) -> Self {
        VolatileDisk {
            capacity: image.capacity,
            pages: Mutex::new(Pages {
                durable: image.pages.clone(),
                pending: BTreeMap::new(),
            }),
        }
    }

    /// The flushed bytes only: what survives a crash right now.
    pub fn crash_image(&self) -> FlushedImage {
        FlushedImage {
            capacity: self.capacity,
            pages: self.lock().durable.clone(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Pages> {
        self.pages.lock().expect("volatile disk lock poisoned")
    }

    /// Calls `f(page, offset in page, offset in buffer, length)` for
    /// each page the byte range `[offset, offset + len)` touches.
    fn for_pages(offset: u64, len: usize, mut f: impl FnMut(usize, usize, usize, usize)) {
        let mut done = 0;
        while done < len {
            let pos = offset as usize + done;
            let (page, in_page) = (pos / PAGE, pos % PAGE);
            let n = (PAGE - in_page).min(len - done);
            f(page, in_page, done, n);
            done += n;
        }
    }
}

impl BlockDevice for VolatileDisk {
    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.check_bounds(offset, buf.len())?;
        let pages = self.lock();
        Self::for_pages(offset, buf.len(), |page, at, done, n| {
            let dst = &mut buf[done..done + n];
            match pages.pending.get(&page) {
                Some(p) => dst.copy_from_slice(&p[at..at + n]),
                None => match &pages.durable[page] {
                    Some(p) => dst.copy_from_slice(&p[at..at + n]),
                    None => dst.fill(0),
                },
            }
        });
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        self.check_bounds(offset, buf.len())?;
        let mut guard = self.lock();
        let pages = &mut *guard;
        Self::for_pages(offset, buf.len(), |page, at, done, n| {
            let durable = &pages.durable[page];
            let p = pages.pending.entry(page).or_insert_with(|| match durable {
                Some(d) => Box::from(&d[..]),
                None => vec![0u8; PAGE].into_boxed_slice(),
            });
            p[at..at + n].copy_from_slice(&buf[done..done + n]);
        });
        Ok(())
    }

    fn flush(&self) -> ld_disk::Result<()> {
        let mut guard = self.lock();
        let pages = &mut *guard;
        for (page, bytes) in std::mem::take(&mut pages.pending) {
            pages.durable[page] = Some(Arc::from(bytes));
        }
        Ok(())
    }
}

/// Time and calls spent in the device, as seen from above it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceTimes {
    pub reads: u64,
    pub read_ns: u64,
    pub writes: u64,
    pub write_ns: u64,
    pub write_bytes: u64,
    pub flushes: u64,
    pub flush_ns: u64,
}

impl DeviceTimes {
    pub fn busy_ns(&self) -> u64 {
        self.read_ns + self.write_ns + self.flush_ns
    }

    pub fn plus(&self, other: &DeviceTimes) -> DeviceTimes {
        DeviceTimes {
            reads: self.reads + other.reads,
            read_ns: self.read_ns + other.read_ns,
            writes: self.writes + other.writes,
            write_ns: self.write_ns + other.write_ns,
            write_bytes: self.write_bytes + other.write_bytes,
            flushes: self.flushes + other.flushes,
            flush_ns: self.flush_ns + other.flush_ns,
        }
    }

    pub fn since(&self, before: &DeviceTimes) -> DeviceTimes {
        DeviceTimes {
            reads: self.reads - before.reads,
            read_ns: self.read_ns - before.read_ns,
            writes: self.writes - before.writes,
            write_ns: self.write_ns - before.write_ns,
            write_bytes: self.write_bytes - before.write_bytes,
            flushes: self.flushes - before.flushes,
            flush_ns: self.flush_ns - before.flush_ns,
        }
    }
}

/// Times every call into the device below it while tracing is on;
/// while off it only forwards, so an untraced phase pays nothing for it.
#[derive(Debug)]
pub struct TimedDisk<D> {
    inner: D,
    on: AtomicBool,
    reads: AtomicU64,
    read_ns: AtomicU64,
    writes: AtomicU64,
    write_ns: AtomicU64,
    write_bytes: AtomicU64,
    flushes: AtomicU64,
    flush_ns: AtomicU64,
}

impl<D: BlockDevice> TimedDisk<D> {
    pub fn new(inner: D) -> Self {
        TimedDisk {
            inner,
            on: AtomicBool::new(false),
            reads: AtomicU64::new(0),
            read_ns: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_ns: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            flush_ns: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &D {
        &self.inner
    }

    pub fn set_tracing(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn times(&self) -> DeviceTimes {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        DeviceTimes {
            reads: get(&self.reads),
            read_ns: get(&self.read_ns),
            writes: get(&self.writes),
            write_ns: get(&self.write_ns),
            write_bytes: get(&self.write_bytes),
            flushes: get(&self.flushes),
            flush_ns: get(&self.flush_ns),
        }
    }

    fn timed<T>(&self, calls: &AtomicU64, ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<D: BlockDevice> BlockDevice for TimedDisk<D> {
    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> ld_disk::Result<()> {
        self.timed(&self.reads, &self.read_ns, || {
            self.inner.read_at(offset, buf)
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> ld_disk::Result<()> {
        if self.on.load(Ordering::Relaxed) {
            self.write_bytes
                .fetch_add(buf.len() as u64, Ordering::Relaxed);
        }
        self.timed(&self.writes, &self.write_ns, || {
            self.inner.write_at(offset, buf)
        })
    }

    fn flush(&self) -> ld_disk::Result<()> {
        self.timed(&self.flushes, &self.flush_ns, || self.inner.flush())
    }

    fn stats_snapshot(&self) -> Option<DiskStatsSnapshot> {
        self.inner.stats_snapshot()
    }
}

/// The full modeled device.
pub type Dev = TimedDisk<LatencyDisk<SimDisk<VolatileDisk>>>;

/// Puts the modeled service times and the timing wrapper (tracing off)
/// on top of `disk`.
pub fn modeled(disk: VolatileDisk) -> Dev {
    let sim = SimDisk::new(disk, DiskModel::hp_c3010());
    let lat = LatencyDisk::new(sim, Duration::from_micros(FLUSH_US))
        .with_write_bandwidth(WRITE_BYTES_PER_SEC)
        .with_read_delay(Duration::from_micros(READ_US));
    TimedDisk::new(lat)
}

/// The volatile device at the bottom of a modeled stack.
pub fn volatile(dev: &Dev) -> &VolatileDisk {
    dev.inner().inner().inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(d: &VolatileDisk, offset: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        d.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn crash_drops_unflushed_writes_and_keeps_flushed_ones() {
        let d = VolatileDisk::new(64 << 10);
        d.write_at(100, &[1u8; 5000]).unwrap();
        d.flush().unwrap();
        d.write_at(8000, &[2u8; 300]).unwrap();
        // The cache serves reads of unflushed bytes.
        assert_eq!(read(&d, 8000, 300), vec![2u8; 300]);

        let after = VolatileDisk::from_image(&d.crash_image());
        assert_eq!(read(&after, 100, 5000), vec![1u8; 5000]);
        assert_eq!(read(&after, 8000, 300), vec![0u8; 300]);
        assert_eq!(read(&after, 0, 100), vec![0u8; 100]);
    }

    #[test]
    fn an_unflushed_overwrite_leaves_the_flushed_bytes() {
        let d = VolatileDisk::new(16 << 10);
        d.write_at(4090, &[7u8; 12]).unwrap();
        d.flush().unwrap();
        d.write_at(4092, &[9u8; 4]).unwrap();
        let after = VolatileDisk::from_image(&d.crash_image());
        assert_eq!(read(&after, 4090, 12), vec![7u8; 12]);
        assert_eq!(read(&d, 4090, 12), [7, 7, 9, 9, 9, 9, 7, 7, 7, 7, 7, 7]);
    }

    #[test]
    fn images_are_independent_copies() {
        let d = VolatileDisk::new(8 << 10);
        d.write_at(0, &[3u8; 4096]).unwrap();
        d.flush().unwrap();
        let image = d.crash_image();
        let a = VolatileDisk::from_image(&image);
        a.write_at(0, &[4u8; 16]).unwrap();
        a.flush().unwrap();
        let b = VolatileDisk::from_image(&image);
        assert_eq!(read(&b, 0, 16), vec![3u8; 16]);
        assert_eq!(read(&a, 0, 16), vec![4u8; 16]);
    }

    #[test]
    fn out_of_bounds_is_refused() {
        let d = VolatileDisk::new(4096);
        assert!(d.write_at(4090, &[0u8; 10]).is_err());
        assert!(d.read_at(4097, &mut [0u8; 1]).is_err());
    }

    #[test]
    fn timed_disk_counts_only_when_on() {
        let on = TimedDisk::new(VolatileDisk::new(8192));
        on.set_tracing(true);
        on.write_at(0, &[1u8; 512]).unwrap();
        on.flush().unwrap();
        on.read_at(0, &mut [0u8; 512]).unwrap();
        let t = on.times();
        assert_eq!(
            (t.reads, t.writes, t.flushes, t.write_bytes),
            (1, 1, 1, 512)
        );
        let off = TimedDisk::new(VolatileDisk::new(8192));
        off.write_at(0, &[1u8; 512]).unwrap();
        assert_eq!(off.times(), DeviceTimes::default());
    }
}
