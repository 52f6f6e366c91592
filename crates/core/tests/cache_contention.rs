//! Multi-process disk-cache contention: two OS processes compiling the same
//! workload into the same cache directory concurrently must never produce
//! torn or corrupt entries, and both must emit byte-identical code.
//!
//! The second process is this very test binary re-executed with
//! `RAWCC_CONTENTION_CHILD` set, which routes it into the `child_worker`
//! "test" below (a no-op in normal runs).

use raw_machine::MachineConfig;
use rawcc::{asm_hash, compile_with_cache, BlockCache, CompilerOptions};
use std::process::{Command, Stdio};

const CHILD_ENV: &str = "RAWCC_CONTENTION_CHILD";
const DIR_ENV: &str = "RAWCC_CONTENTION_DIR";

fn workload() -> Vec<(String, raw_ir::Program)> {
    [
        "int i; int s; int A[8];
         for (i = 0; i < 8; i = i + 1) A[i] = 3*i + 2;
         for (i = 0; i < 8; i = i + 1) s = s + A[i];",
        "int i; int p;
         p = 1;
         for (i = 1; i < 8; i = i + 1) p = p * i;",
        "int i; int j; int s; int B[5];
         for (i = 0; i < 5; i = i + 1) B[i] = i * i + 1;
         for (j = 0; j < 5; j = j + 1) s = s + B[j] * 2;",
    ]
    .iter()
    .enumerate()
    .map(|(n, src)| {
        let name = format!("cont{n}");
        let program = raw_lang::compile_source(&name, src, 2).unwrap();
        (name, program)
    })
    .collect()
}

fn options() -> CompilerOptions {
    CompilerOptions {
        threads: 2,
        ..CompilerOptions::default()
    }
}

/// Child-process entry point: a no-op unless re-executed by the parent test.
#[test]
fn child_worker() {
    let Ok(dir) = std::env::var(DIR_ENV) else {
        return;
    };
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let cache = BlockCache::with_disk(&dir).unwrap();
    let config = MachineConfig::square(2);
    for (name, program) in workload() {
        let compiled = compile_with_cache(&program, &config, &options(), &cache).unwrap();
        println!(
            "CONTENTION_HASH name={name} hash={:#018x}",
            asm_hash(&compiled.machine_program)
        );
    }
}

fn parse_hashes(stdout: &str) -> Vec<(String, String)> {
    stdout
        .lines()
        .filter(|l| l.contains("CONTENTION_HASH "))
        .map(|l| {
            let name = l.split("name=").nth(1).unwrap().split(' ').next().unwrap();
            let hash = l.split("hash=").nth(1).unwrap().split(' ').next().unwrap();
            (name.to_string(), hash.to_string())
        })
        .collect()
}

#[test]
fn two_processes_share_a_cache_dir_without_corruption() {
    if std::env::var(CHILD_ENV).is_ok() {
        return; // we *are* the child; child_worker does the work
    }
    let dir = std::env::temp_dir().join(format!("rawcc-contention-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let exe = std::env::current_exe().unwrap();
    let spawn = || {
        Command::new(&exe)
            .args(["child_worker", "--exact", "--nocapture"])
            .env(CHILD_ENV, "1")
            .env(DIR_ENV, &dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap()
    };
    // Both children race cold over the same empty directory.
    let (a, b) = (spawn(), spawn());
    let out_a = a.wait_with_output().unwrap();
    let out_b = b.wait_with_output().unwrap();
    assert!(out_a.status.success(), "child A failed");
    assert!(out_b.status.success(), "child B failed");

    // Both processes must report the same hashes as an in-process compile.
    let config = MachineConfig::square(2);
    let expected: Vec<(String, String)> = workload()
        .iter()
        .map(|(name, program)| {
            let compiled =
                compile_with_cache(program, &config, &options(), &BlockCache::in_memory()).unwrap();
            (
                name.clone(),
                format!("{:#018x}", asm_hash(&compiled.machine_program)),
            )
        })
        .collect();
    for (tag, out) in [("A", &out_a), ("B", &out_b)] {
        let got = parse_hashes(&String::from_utf8_lossy(&out.stdout));
        assert_eq!(
            got, expected,
            "child {tag} diverged from the in-process compile"
        );
    }

    // No torn entries: a reload of the shared directory serves every block
    // as a hit, rejects nothing, and reproduces the in-process asm.
    let cache = BlockCache::with_disk(&dir).unwrap();
    for ((name, program), (_, want)) in workload().iter().zip(&expected) {
        let compiled = compile_with_cache(program, &config, &options(), &cache).unwrap();
        assert_eq!(
            compiled.report.cache.misses, 0,
            "{name}: contended writes left an unusable entry"
        );
        assert_eq!(
            &format!("{:#018x}", asm_hash(&compiled.machine_program)),
            want,
            "{name}: the reloaded cache changed the asm"
        );
    }
    assert_eq!(cache.disk_rejects(), 0, "torn/corrupt entries on disk");

    // Nothing but valid cache entries may remain — no leaked temp files.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.ends_with(".rbc") || name.starts_with(".probe-"),
            "unexpected leftover file {name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
