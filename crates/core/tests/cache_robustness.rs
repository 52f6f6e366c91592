//! Robustness tests for the on-disk block-cache layer: corrupt, truncated,
//! stale-version, and mis-keyed entries must be detected, ignored, and
//! rewritten — never panic, never wrong output. Plus the cache-hit-equals-
//! fresh-compile property that underwrites every hit the compiler serves.

use raw_machine::MachineConfig;
use raw_testkit::prelude::*;
use rawcc::blockcache::canonical_block_bytes;
use rawcc::{
    compile_block, compile_with_cache, BlockCache, CompilerOptions, DataLayout, KeyContext,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rawcc-robust-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small multi-block program (loop ⇒ header/body/exit blocks).
fn sample_program() -> raw_ir::Program {
    raw_lang::compile_source(
        "robust",
        "int i; int s; int A[6];
         for (i = 0; i < 6; i = i + 1) A[i] = 2*i + 1;
         for (i = 0; i < 6; i = i + 1) s = s + A[i];",
        2,
    )
    .unwrap()
}

/// Entry byte layout (see blockcache.rs): magic 0..8, version 8..12,
/// key 12..28, payload length 28..36, checksum 36..44, payload 44.. .
const OFF_VERSION: usize = 8;
const OFF_KEY: usize = 12;
const OFF_PAYLOAD: usize = 44;

/// Compiles into a disk cache, mutates every on-disk entry with `corrupt`,
/// then asserts a fresh cache over the same directory still produces
/// identical output, counts a reject per entry, and rewrites the
/// entries so a third pass is 100% hits again.
fn check_corruption(tag: &str, corrupt: impl Fn(&mut Vec<u8>)) {
    let program = sample_program();
    let config = MachineConfig::square(2);
    let options = CompilerOptions::default();
    let dir = unique_dir(tag);

    let reference = {
        let cache = BlockCache::with_disk(&dir).unwrap();
        compile_with_cache(&program, &config, &options, &cache).unwrap()
    };

    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "rbc"))
        .collect();
    assert_eq!(
        entries.len(),
        program.blocks.len(),
        "{tag}: one disk entry per block"
    );
    for path in &entries {
        let mut bytes = std::fs::read(path).unwrap();
        corrupt(&mut bytes);
        std::fs::write(path, &bytes).unwrap();
    }

    // Corrupt entries: rejected, recompiled, output identical, rewritten.
    {
        let cache = BlockCache::with_disk(&dir).unwrap();
        let compiled = compile_with_cache(&program, &config, &options, &cache).unwrap();
        assert_eq!(
            compiled.machine_program, reference.machine_program,
            "{tag}: corrupt cache changed output"
        );
        assert_eq!(
            cache.disk_rejects(),
            entries.len() as u64,
            "{tag}: every corrupt entry should be rejected"
        );
        assert_eq!(
            compiled.report.cache.hits, 0,
            "{tag}: a corrupt entry was served as a hit"
        );
    }

    // The miss path rewrote the entries: a third pass hits everything.
    {
        let cache = BlockCache::with_disk(&dir).unwrap();
        let compiled = compile_with_cache(&program, &config, &options, &cache).unwrap();
        assert_eq!(compiled.machine_program, reference.machine_program);
        assert_eq!(
            compiled.report.cache.misses, 0,
            "{tag}: entries not rewritten"
        );
        assert_eq!(
            cache.disk_rejects(),
            0,
            "{tag}: rewritten entries are valid"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entries_are_rejected_and_rewritten() {
    check_corruption("trunc", |bytes| bytes.truncate(bytes.len() / 2));
}

#[test]
fn emptied_entries_are_rejected_and_rewritten() {
    check_corruption("empty", |bytes| bytes.clear());
}

#[test]
fn bitflipped_payloads_are_rejected_and_rewritten() {
    check_corruption("flip", |bytes| bytes[OFF_PAYLOAD] ^= 0x40);
}

#[test]
fn wrong_version_entries_are_rejected_and_rewritten() {
    check_corruption("version", |bytes| {
        bytes[OFF_VERSION] = bytes[OFF_VERSION].wrapping_add(1)
    });
}

#[test]
fn mis_keyed_entries_are_rejected_and_rewritten() {
    // Stored key disagrees with the file's content address — e.g. a file
    // renamed or synced into the wrong slot.
    check_corruption("key", |bytes| bytes[OFF_KEY] ^= 0xFF);
}

#[test]
fn trailing_garbage_is_rejected_and_rewritten() {
    check_corruption("trail", |bytes| bytes.extend_from_slice(b"garbage"));
}

#[test]
fn with_disk_under_a_file_fails() {
    let file = unique_dir("notadir");
    std::fs::write(&file, b"occupied").unwrap();
    let err = BlockCache::with_disk(file.join("cache"));
    assert!(err.is_err(), "with_disk under a regular file must fail");
    let _ = std::fs::remove_file(&file);
}

raw_testkit::proptest! {
    #![cases(10)]
    /// A cache hit returns a bundle equal to a fresh `compile_block` of the
    /// same block — the property every served hit rests on.
    #[test]
    fn cache_hit_equals_fresh_compile(trip in 2i64..9, k in 1i64..4) {
        let src = format!(
            "int i; int s;
             for (i = 0; i < {trip}; i = i + 1) s = s + {k}*i + 2;"
        );
        let program = raw_lang::compile_source("prop-hit", &src, 2).unwrap();
        let config = MachineConfig::square(2);
        let options = CompilerOptions::default();
        let cache = BlockCache::in_memory();
        compile_with_cache(&program, &config, &options, &cache).unwrap();

        let layout = DataLayout::build(&program, &config);
        let key_ctx = KeyContext::new(&layout, &config, &options);
        for block in &program.blocks {
            let (hit, _) = cache.get(&key_ctx.key(&canonical_block_bytes(block)));
            let hit = hit.expect("every block was just compiled into the cache");
            let (fresh, _) = compile_block(block, &layout, &config, &options);
            prop_assert!(*hit == fresh, "cached bundle diverged from fresh compile");
        }
    }
}
