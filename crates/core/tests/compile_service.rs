//! End-to-end tests of the compile daemon: byte-identical results at every
//! client count, a fully warm second pass, corrupt-disk recovery through the
//! service, per-client stats, and a protocol fuzz pass that must never take
//! the daemon down.

use raw_machine::MachineConfig;
use raw_testkit::Rng;
use rawcc::service::{serve, Client, ServeOptions, ServiceError};
use rawcc::wire;
use rawcc::{asm_hash, compile_with_cache, BlockCache, CompilerOptions};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn unique_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rawcc-service-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small workload of distinct multi-block programs.
fn workload() -> Vec<raw_ir::Program> {
    [
        "int i; int s; int A[6];
         for (i = 0; i < 6; i = i + 1) A[i] = 2*i + 1;
         for (i = 0; i < 6; i = i + 1) s = s + A[i];",
        "int i; int p;
         p = 1;
         for (i = 1; i < 7; i = i + 1) p = p * i;",
        "int i; int j; int s; int B[4];
         for (i = 0; i < 4; i = i + 1) B[i] = i * i;
         for (j = 0; j < 4; j = j + 1) s = s + B[j] * 3;",
    ]
    .iter()
    .enumerate()
    .map(|(n, src)| raw_lang::compile_source(&format!("svc{n}"), src, 2).unwrap())
    .collect()
}

/// Hashes at client counts {1, 2, 8} must all equal the in-process compile.
#[test]
fn remote_hashes_match_in_process_at_every_client_count() {
    let programs = workload();
    let config = MachineConfig::square(2);
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    let expected: Vec<u64> = programs
        .iter()
        .map(|p| {
            let compiled =
                compile_with_cache(p, &config, &options, &BlockCache::in_memory()).unwrap();
            asm_hash(&compiled.machine_program)
        })
        .collect();

    let handle = serve(&ServeOptions::default()).unwrap();
    let addr = handle.addr();
    for clients in [1usize, 2, 8] {
        std::thread::scope(|scope| {
            for k in 0..clients {
                let (programs, expected, config, options) =
                    (&programs, &expected, &config, &options);
                scope.spawn(move || {
                    let mut client = Client::connect(addr, format!("c{clients}-{k}")).unwrap();
                    for (program, want) in programs.iter().zip(expected) {
                        let resp = client.compile(program, config, options).unwrap();
                        assert_eq!(
                            asm_hash(&resp.machine_program),
                            *want,
                            "daemon output diverged at {clients} clients"
                        );
                    }
                });
            }
        });
    }

    // Stats: every program×client round-trip is accounted, percentiles are
    // ordered, and per-client rows exist for every connection name.
    let mut client = Client::connect(addr, "stats-reader").unwrap();
    let stats = client.stats().unwrap();
    let total = (programs.len() * (1 + 2 + 8)) as u64;
    assert_eq!(stats.requests, total);
    assert!(stats.p50_us <= stats.p90_us && stats.p90_us <= stats.p99_us);
    assert_eq!(stats.clients.len(), 1 + 2 + 8);
    assert!(stats.clients.iter().any(|row| row.client == "c8-7"));

    client.shutdown().unwrap();
    handle.join();
}

/// A second identical pass over a warm daemon must be 100% cache hits.
#[test]
fn warm_pass_is_all_hits() {
    let programs = workload();
    let config = MachineConfig::square(2);
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "warm-test").unwrap();

    let mut cold_blocks = 0;
    for program in &programs {
        let resp = client.compile(program, &config, &options).unwrap();
        cold_blocks += resp.hits + resp.misses;
    }
    let cold = client.stats().unwrap();
    assert!(cold.cache.misses > 0, "cold pass must compile something");
    assert_eq!(cold.memo_hits, 0, "cold pass cannot hit the response memo");

    let (mut warm_hits, mut warm_misses) = (0, 0);
    for program in &programs {
        let resp = client.compile(program, &config, &options).unwrap();
        warm_hits += resp.hits;
        warm_misses += resp.misses;
    }
    let warm = client.stats().unwrap();
    assert_eq!(warm_misses, 0, "warm pass recompiled blocks");
    assert_eq!(warm.cache.misses, cold.cache.misses, "global misses grew");
    assert_eq!(warm_hits, cold_blocks, "every block must hit warm");
    // Warm requests are byte-identical to cold ones, so each one must be
    // answered verbatim from the whole-response memo.
    assert_eq!(
        warm.memo_hits,
        programs.len() as u64,
        "warm requests must be served from the response memo"
    );

    client.shutdown().unwrap();
    handle.join();
}

/// Corrupting every on-disk entry between two daemon lifetimes must be
/// detected (disk_rejects), recompiled to identical output, and repaired.
#[test]
fn corrupt_disk_entries_recompile_identically_through_the_service() {
    let programs = workload();
    let config = MachineConfig::square(2);
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    let dir = unique_dir("corrupt");
    let opts = ServeOptions {
        cache_dir: Some(dir.clone()),
        ..ServeOptions::default()
    };

    let first: Vec<u64> = {
        let handle = serve(&opts).unwrap();
        let mut client = Client::connect(handle.addr(), "writer").unwrap();
        let hashes = programs
            .iter()
            .map(|p| {
                asm_hash(
                    &client
                        .compile(p, &config, &options)
                        .unwrap()
                        .machine_program,
                )
            })
            .collect();
        client.shutdown().unwrap();
        handle.join();
        hashes
    };

    let mut entries = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "rbc") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x55;
            std::fs::write(&path, &bytes).unwrap();
            entries += 1;
        }
    }
    assert!(entries > 0, "first daemon persisted nothing");

    let handle = serve(&opts).unwrap();
    let mut client = Client::connect(handle.addr(), "reader").unwrap();
    for (program, want) in programs.iter().zip(&first) {
        let resp = client.compile(program, &config, &options).unwrap();
        assert_eq!(
            asm_hash(&resp.machine_program),
            *want,
            "corrupt disk cache changed daemon output"
        );
        assert_eq!(resp.hits, 0, "a corrupt entry was served as a hit");
    }
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.cache.disk_rejects, entries,
        "every corrupt entry must be counted"
    );
    client.shutdown().unwrap();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

fn read_one_frame(stream: &mut TcpStream) -> Result<(u8, Vec<u8>), wire::WireError> {
    wire::read_frame(stream)
}

/// Random byte streams must get a typed error or a clean close — never hang
/// the connection, never take the daemon down.
#[test]
fn random_garbage_never_kills_the_daemon() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let addr = handle.addr();
    let mut rng = Rng::new(0xFEED_FACE);

    for round in 0..200u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let len = (rng.next_u64() % 64) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // Half the rounds keep a valid header so the payload decoders get
        // exercised too, not just the magic check.
        if round % 2 == 0 && bytes.len() >= 9 {
            bytes[..4].copy_from_slice(&wire::FRAME_MAGIC);
            bytes[4] = wire::REQ_COMPILE;
            let payload_len = (bytes.len() - 9) as u32;
            bytes[5..9].copy_from_slice(&payload_len.to_le_bytes());
        }
        // The daemon may have already torn the connection down (RST on bad
        // magic) while we are still writing — that counts as a clean refusal.
        if stream.write_all(&bytes).is_err() {
            continue;
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        match read_one_frame(&mut stream) {
            Ok((kind, payload)) => {
                assert_eq!(kind, wire::RESP_ERROR, "garbage must never succeed");
                let (code, _) = wire::decode_error(&payload).unwrap();
                assert!(
                    code == wire::errcode::MALFORMED
                        || code == wire::errcode::UNKNOWN_KIND
                        || code == wire::errcode::BAD_PROGRAM
                        || code == wire::errcode::PROTOCOL,
                    "unexpected error code {code}"
                );
            }
            // A close (or a half-written error racing the close) is also an
            // acceptable answer to a torn frame.
            Err(wire::WireError::Closed | wire::WireError::Truncated) => {}
            Err(wire::WireError::Io(_)) => {}
            Err(e) => panic!("daemon answered garbage with {e}"),
        }
    }

    // Oversized length prefix: must be refused without allocating.
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut frame = Vec::from(wire::FRAME_MAGIC);
    frame.push(wire::REQ_PING);
    frame.extend_from_slice(&(wire::MAX_FRAME + 1).to_le_bytes());
    stream.write_all(&frame).unwrap();
    match read_one_frame(&mut stream) {
        Ok((kind, _)) => assert_eq!(kind, wire::RESP_ERROR),
        Err(wire::WireError::Closed | wire::WireError::Truncated) => {}
        Err(e) => panic!("oversize answered with {e}"),
    }

    // Unknown request kind on a valid frame: typed error, connection stays up.
    let mut stream = TcpStream::connect(addr).unwrap();
    wire::write_frame(&mut stream, 0x7F, b"?").unwrap();
    let (kind, payload) = read_one_frame(&mut stream).unwrap();
    assert_eq!(kind, wire::RESP_ERROR);
    assert_eq!(
        wire::decode_error(&payload).unwrap().0,
        wire::errcode::UNKNOWN_KIND
    );
    // Same connection still serves valid requests afterwards.
    wire::write_frame(&mut stream, wire::REQ_PING, b"alive?").unwrap();
    let (kind, payload) = read_one_frame(&mut stream).unwrap();
    assert_eq!(kind, wire::RESP_PONG);
    assert_eq!(payload, b"alive?");

    // After all that abuse the daemon still compiles correctly.
    let program = &workload()[0];
    let config = MachineConfig::square(2);
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    let reference =
        compile_with_cache(program, &config, &options, &BlockCache::in_memory()).unwrap();
    let mut client = Client::connect(addr, "survivor").unwrap();
    let resp = client.compile(program, &config, &options).unwrap();
    assert_eq!(
        asm_hash(&resp.machine_program),
        asm_hash(&reference.machine_program)
    );
    client.shutdown().unwrap();
    handle.join();
}

/// A mesh past the machine's tile limit, or one whose tile count overflows,
/// is a malformed request: it must not reach the compiler, which would size
/// per-tile-pair tables from it (or overflow) and take the daemon down.
#[test]
fn oversized_meshes_are_malformed_requests() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "giant-mesh").unwrap();
    let program = &workload()[0];
    let options = CompilerOptions {
        threads: 1,
        ..CompilerOptions::default()
    };
    for side in [1024, 65536] {
        let config = MachineConfig::grid(side, side);
        match client.compile(program, &config, &options) {
            Err(ServiceError::Wire(wire::WireError::Remote(code, _))) => {
                assert_eq!(code, wire::errcode::MALFORMED, "{side}x{side}");
            }
            other => panic!("{side}x{side} mesh answered {:?}", other.map(|_| ())),
        }
    }
    let config = MachineConfig::square(2);
    let resp = client.compile(program, &config, &options).unwrap();
    let reference =
        compile_with_cache(program, &config, &options, &BlockCache::in_memory()).unwrap();
    assert_eq!(
        asm_hash(&resp.machine_program),
        asm_hash(&reference.machine_program)
    );
    client.shutdown().unwrap();
    handle.join();
}

/// A program that fails IR verification gets a typed BAD_PROGRAM error and
/// the connection survives.
#[test]
fn invalid_program_is_a_typed_error_not_a_crash() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), "bad-program").unwrap();
    let config = MachineConfig::square(2);
    let options = CompilerOptions::default();

    let mut program = workload()[0].clone();
    program.entry = raw_ir::BlockId::from_raw(program.blocks.len() as u32 + 7);
    let err = client.compile(&program, &config, &options).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("error 3"), "want BAD_PROGRAM, got: {text}");

    // The same connection keeps working.
    assert_eq!(client.ping(b"ok").unwrap(), b"ok");
    client.shutdown().unwrap();
    handle.join();
}
