//! Torn and stale checkpoint snapshots.
//!
//! The sharded checkpoint (format v2) is written slab-by-slab into the
//! inactive A/B area, so a power cut can land mid-slab, between the
//! slab writes and the header, or after the header of a *previous*
//! checkpoint (leaving a stale-but-valid snapshot under a newer log
//! suffix). In every one of those states recovery must reconstruct the
//! same logical state as a full-log replay of the same image with both
//! checkpoint areas invalidated: checkpoints are an accelerator, never
//! an authority. Each case recovers with slab decode and segment scan
//! inline (`recovery_threads: 1`) and fanned out (`recovery_threads:
//! 4`).
//!
//! * Deterministic byte-surgery cases: a mid-slab tear at 1 and at 8
//!   map shards (whole area invalid, fall back), a tear in the newest
//!   area after an A/B switch (fall back to the older area plus a
//!   longer replay), and a stale snapshot under a delete/re-allocate
//!   heavy suffix (no corruption; stresses identifier re-use across
//!   the snapshot/suffix boundary).
//! * A crash-matrix sweep (`SimDisk` byte-budget cuts) through a
//!   workload that checkpoints repeatedly, so cuts land inside slab
//!   writes, directory writes, and header publishes at whatever
//!   offsets the encoder actually uses.
//! * Shard-count migration: an image checkpointed at 8 map shards
//!   recovered at 1 and at 16 (the snapshot shard count is a property
//!   of the image, the map shard count a property of the process).

use ld_aru::core::{Ctx, Lld, LldConfig, Position};
use ld_aru::disk::{DiskModel, FaultPlan, MemDisk, SimDisk};
use ld_aru::workload::pattern_fill;

const BS: usize = 512;
/// Mirrors `layout.rs`: checkpoint header and reserved directory bytes
/// ahead of the first snapshot slab in an area.
const CKPT_SLAB_START: u64 = 64 + 64 * 24;

fn config(shards: usize, threads: usize) -> LldConfig {
    LldConfig {
        block_size: BS,
        segment_bytes: 16 * BS,
        max_blocks: Some(2048),
        max_lists: Some(256),
        map_shards: shards,
        recovery_threads: threads,
        ..LldConfig::default()
    }
}

/// Raw handles created by the workload. The same config drives every
/// recovery of one image, so raw ids are directly comparable.
struct World {
    lists: Vec<ld_aru::core::ListId>,
    blocks: Vec<ld_aru::core::BlockId>,
}

/// Every observable of the recovered disk the workload touched: each
/// list's walk and each block's content (None where the read fails —
/// two recoveries compared must fail on the same deleted identifiers).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    walks: Vec<Option<Vec<u64>>>,
    contents: Vec<Option<Vec<u8>>>,
}

fn fingerprint(ld: &Lld<MemDisk>, world: &World) -> Fingerprint {
    let walks = world
        .lists
        .iter()
        .map(|&l| {
            ld.list_blocks(Ctx::Simple, l)
                .ok()
                .map(|bs| bs.iter().map(|b| b.get()).collect())
        })
        .collect();
    let mut buf = vec![0u8; BS];
    let contents = world
        .blocks
        .iter()
        .map(|&b| ld.read(Ctx::Simple, b, &mut buf).ok().map(|_| buf.clone()))
        .collect();
    Fingerprint { walks, contents }
}

/// Recovers a copy of `image` at `threads` workers and fingerprints it.
/// Returns the report's checkpoint_seq alongside.
fn recover_fp(image: &[u8], shards: usize, threads: usize, world: &World) -> (Fingerprint, u64) {
    let (ld, report) = Lld::recover_with(
        MemDisk::from_image(image.to_vec()),
        &config(shards, threads),
    )
    .unwrap();
    (fingerprint(&ld, world), report.checkpoint_seq)
}

/// The full-log oracle: `image` with both checkpoint areas' headers
/// zeroed, so recovery finds no checkpoint and replays every segment.
fn without_checkpoints(image: &[u8]) -> Vec<u8> {
    let (layout, _, _) = Lld::probe(&MemDisk::from_image(image.to_vec())).unwrap();
    let mut raw = image.to_vec();
    for area in [layout.ckpt_a, layout.ckpt_b] {
        raw[area as usize..(area + 64) as usize].fill(0);
    }
    raw
}

/// Builds the common image: a few populated lists (flushed), one
/// checkpoint, then a committed suffix of overwrites, deletions, and
/// re-allocations above it. Returns the crash image and the handles.
fn build_image(shards: usize, suffix_arus: u64) -> (Vec<u8>, World) {
    let ld = Lld::format(MemDisk::new(4 << 20), &config(shards, 1)).unwrap();
    let mut world = World {
        lists: Vec::new(),
        blocks: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    for li in 0..12u64 {
        let l = ld.new_list(Ctx::Simple).unwrap();
        let mut pred = None;
        for bi in 0..6u64 {
            let pos = match pred {
                None => Position::First,
                Some(p) => Position::After(p),
            };
            let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
            pattern_fill(&mut data, li * 100 + bi);
            ld.write(Ctx::Simple, b, &data).unwrap();
            world.blocks.push(b);
            pred = Some(b);
        }
        world.lists.push(l);
    }
    ld.flush().unwrap();
    ld.checkpoint().unwrap();

    // Suffix: committed ARUs overwriting, deleting, and re-allocating
    // — identifiers freed and re-used above the snapshot.
    let mut live: Vec<usize> = (0..world.blocks.len()).collect();
    for i in 0..suffix_arus {
        let aru = ld.begin_aru().unwrap();
        let tgt = world.blocks[live[(i * 7 + 3) as usize % live.len()]];
        pattern_fill(&mut data, 0x5000 + i);
        ld.write(Ctx::Aru(aru), tgt, &data).unwrap();
        ld.end_aru(aru).unwrap();
        if i % 5 == 2 && live.len() > 4 {
            // Delete a block, then allocate a replacement (often the
            // same raw id) into another list inside an ARU.
            let vi = (i * 11) as usize % live.len();
            let victim = world.blocks[live.swap_remove(vi)];
            ld.delete_block(Ctx::Simple, victim).unwrap();
            let aru = ld.begin_aru().unwrap();
            let l = world.lists[(i % world.lists.len() as u64) as usize];
            let nb = ld.new_block(Ctx::Aru(aru), l, Position::First).unwrap();
            pattern_fill(&mut data, 0x9000 + i);
            ld.write(Ctx::Aru(aru), nb, &data).unwrap();
            ld.end_aru(aru).unwrap();
            live.push(world.blocks.len());
            world.blocks.push(nb);
        }
    }
    (ld.into_device().into_image(), world)
}

/// A mid-slab tear invalidates the whole area (per-slab CRC): recovery
/// at any thread count falls back to scanning the full log and still
/// reconstructs the suffix state. Exercised at 1 and 8 snapshot shards
/// — one big slab versus eight small ones with independent CRCs.
#[test]
fn mid_slab_tear_falls_back_to_full_scan() {
    for &shards in &[1usize, 8] {
        let (image, world) = build_image(shards, 40);
        let (clean_fp, clean_seq) = recover_fp(&image, shards, 1, &world);
        assert!(clean_seq > 0, "shards {shards}: checkpoint not found clean");

        let probe = MemDisk::from_image(image.clone());
        let (layout, _, _) = Lld::probe(&probe).unwrap();
        let mut torn = image.clone();
        // First checkpoint goes to area A; cut inside the first slab's
        // payload (shard 0 always holds entries here).
        torn[(layout.ckpt_a + CKPT_SLAB_START + 8) as usize] ^= 0xFF;

        for &threads in &[1usize, 4] {
            let (fp, seq) = recover_fp(&torn, shards, threads, &world);
            assert_eq!(
                seq, 0,
                "shards {shards}, threads {threads}: torn snapshot not rejected"
            );
            assert_eq!(
                fp, clean_fp,
                "shards {shards}, threads {threads}: full-scan fallback diverges"
            );
        }
    }
}

/// A tear in the newest area right after an A/B switch: the older
/// area is still valid, so recovery uses the stale snapshot and
/// replays the longer suffix on top of it.
#[test]
fn torn_ab_switch_falls_back_to_older_area() {
    let shards = 8;
    let ld = Lld::format(MemDisk::new(4 << 20), &config(shards, 1)).unwrap();
    let mut world = World {
        lists: Vec::new(),
        blocks: Vec::new(),
    };
    let mut data = vec![0u8; BS];
    let l = ld.new_list(Ctx::Simple).unwrap();
    world.lists.push(l);
    let mut pred = None;
    for i in 0..24u64 {
        let pos = match pred {
            None => Position::First,
            Some(p) => Position::After(p),
        };
        let b = ld.new_block(Ctx::Simple, l, pos).unwrap();
        pattern_fill(&mut data, i);
        ld.write(Ctx::Simple, b, &data).unwrap();
        world.blocks.push(b);
        pred = Some(b);
    }
    ld.flush().unwrap();
    ld.checkpoint().unwrap(); // area A
    for i in 0..10u64 {
        pattern_fill(&mut data, 0x100 + i);
        ld.write(Ctx::Simple, world.blocks[i as usize], &data)
            .unwrap();
    }
    ld.checkpoint().unwrap(); // area B (newer)
    for i in 0..10u64 {
        pattern_fill(&mut data, 0x200 + i);
        ld.write(Ctx::Simple, world.blocks[10 + i as usize], &data)
            .unwrap();
    }
    ld.flush().unwrap();
    let image = ld.into_device().into_image();

    let (clean_fp, clean_seq) = recover_fp(&image, shards, 1, &world);
    let probe = MemDisk::from_image(image.clone());
    let (layout, _, _) = Lld::probe(&probe).unwrap();
    let mut torn = image.clone();
    torn[(layout.ckpt_b + CKPT_SLAB_START + 8) as usize] ^= 0xFF;

    let mut seqs = Vec::new();
    for &threads in &[1usize, 4] {
        let (fp, seq) = recover_fp(&torn, shards, threads, &world);
        assert!(seq > 0, "threads {threads}: older area not used");
        assert!(
            seq < clean_seq,
            "threads {threads}: fell back but kept the newer coverage?"
        );
        assert_eq!(fp, clean_fp, "threads {threads}: fallback state diverges");
        seqs.push(seq);
    }
    assert_eq!(seqs[0], seqs[1], "executors picked different checkpoints");
}

/// No corruption at all — just a stale snapshot under a suffix heavy
/// with deletions and identifier re-use. Replaying that suffix over the
/// loaded slabs must agree exactly with replaying the whole log.
#[test]
fn stale_snapshot_under_reallocating_suffix() {
    let (image, world) = build_image(8, 120);
    let (full_fp, full_seq) = recover_fp(&without_checkpoints(&image), 8, 1, &world);
    assert_eq!(full_seq, 0, "checkpoint areas not invalidated");
    // 6 threads split the 8 snapshot slabs into uneven chunks.
    for &threads in &[1usize, 4, 6] {
        let (fp, seq) = recover_fp(&image, 8, threads, &world);
        assert!(seq > 0, "threads {threads}: checkpoint not used");
        assert_eq!(fp, full_fp, "threads {threads}: suffix replay diverges");
    }
}

/// An image checkpointed at 8 map shards recovered at 1 and at 16: the
/// snapshot's slab count comes from the image, the recovered map's
/// shard count from the running config, and neither may observe the
/// other.
#[test]
fn snapshot_shard_count_migrates() {
    let (image, world) = build_image(8, 60);
    let (base_fp, base_seq) = recover_fp(&image, 8, 1, &world);
    assert!(base_seq > 0);
    for &shards in &[1usize, 16] {
        for &threads in &[1usize, 4] {
            let (fp, seq) = recover_fp(&image, shards, threads, &world);
            assert_eq!(seq, base_seq, "shards {shards}, threads {threads}");
            assert_eq!(
                fp, base_fp,
                "recover at {shards} shards, {threads} threads diverges"
            );
        }
    }
}

/// Byte-budget crash sweep through a checkpoint-heavy workload: cuts
/// land inside slab writes, the directory write, the header publish,
/// and ordinary segment writes. Whatever survives, recovery from the
/// surviving checkpoint agrees with a full-log replay, and everything
/// flushed before the first checkpoint is intact.
#[test]
fn checkpoint_write_crash_matrix() {
    for &shards in &[1usize, 8] {
        let mut crash_at = 40_000u64;
        while crash_at < 400_000 {
            let sim = SimDisk::new(MemDisk::new(4 << 20), DiskModel::hp_c3010())
                .with_faults(FaultPlan::new().crash_after_bytes(crash_at));
            let ld = Lld::format(sim, &config(shards, 1)).unwrap();
            let mut world = World {
                lists: Vec::new(),
                blocks: Vec::new(),
            };
            let mut data = vec![0u8; BS];

            // Base state, flushed before the fault budget can fire
            // checkpoint writes: must always survive.
            let mut sealed = 0usize;
            let crashed = (|| -> Result<(), ld_aru::core::LldError> {
                for li in 0..8u64 {
                    let l = ld.new_list(Ctx::Simple)?;
                    let b = ld.new_block(Ctx::Simple, l, Position::First)?;
                    pattern_fill(&mut data, li);
                    ld.write(Ctx::Simple, b, &data)?;
                    world.lists.push(l);
                    world.blocks.push(b);
                }
                ld.flush()?;
                sealed = world.blocks.len();
                // Churn with periodic checkpoints until the cut.
                for round in 0..40u64 {
                    for (i, &b) in world.blocks.iter().enumerate().take(sealed) {
                        pattern_fill(&mut data, 0x1000 + round * 100 + i as u64);
                        ld.write(Ctx::Simple, b, &data)?;
                    }
                    ld.checkpoint()?;
                }
                Ok(())
            })()
            .is_err();

            let image = ld.into_device().into_inner().into_image();
            let (full_fp, _) = recover_fp(&without_checkpoints(&image), shards, 1, &world);
            let (fp1, seq1) = recover_fp(&image, shards, 1, &world);
            let (fp4, seq4) = recover_fp(&image, shards, 4, &world);
            assert_eq!(
                seq1, seq4,
                "shards {shards}, cut {crash_at}: different checkpoints"
            );
            assert_eq!(
                fp1, full_fp,
                "shards {shards}, cut {crash_at}: checkpoint recovery diverges from full replay"
            );
            assert_eq!(
                fp4, full_fp,
                "shards {shards}, cut {crash_at}: fanned-out recovery diverges"
            );
            // The flushed base blocks all survive (contents may be any
            // committed round's pattern, but reads must succeed).
            for (i, c) in fp1.contents.iter().enumerate().take(sealed) {
                assert!(
                    c.is_some(),
                    "shards {shards}, cut {crash_at}: flushed block {i} lost"
                );
            }
            assert!(crashed || crash_at > 200_000, "cut {crash_at} never fired");
            crash_at += 23_000;
        }
    }
}
