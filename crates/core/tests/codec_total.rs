//! Every decoder of outside bytes — disk entry, bundle, each wire message, the
//! frame reader — is total: one table of samples, held to the same three
//! attacks (`codec.rs` key invariants 1 and 2).

use raw_ir::builder::ProgramBuilder;
use raw_machine::MachineConfig;
use rawcc::blockcache::{decode_bundle, decode_entry, encode_bundle};
use rawcc::wire::{self, CompileRequest, CompileResponse, MetricsFormat, MetricsResponse};
use rawcc::{compile_with_cache, BlockCache, CacheKey, CompilerOptions, DiskLayer};
use std::path::{Path, PathBuf};

/// A decoder reduced to "did it accept these bytes".
type Accepts = Box<dyn Fn(&[u8]) -> bool>;

/// One decoder and a sample it accepts.
struct Case {
    name: &'static str,
    sample: Vec<u8>,
    accepts: Accepts,
    /// Checksummed: every single-bit flip must be *rejected*, not merely
    /// survived.
    sealed: bool,
}

/// The disk layer behind the "disk entry" sample, and where that entry lives.
struct EntryFile {
    disk: DiskLayer,
    key: CacheKey,
    path: PathBuf,
}

fn cases(dir: &Path) -> (Vec<Case>, EntryFile) {
    // Real samples: one compile of a small program through every layer.
    let mut b = ProgramBuilder::new("total");
    let out = b.var_i32("out", 0);
    let xv = b.var_i32("x", 6);
    let x = b.read_var(xv);
    let p = b.mul(x, x);
    b.write_var(out, p);
    b.name_value(p, "p");
    b.halt();
    let program = b.finish().unwrap();
    let config = MachineConfig::square(4);
    let options = CompilerOptions::default();
    let cache = BlockCache::in_memory();
    let compiled = compile_with_cache(&program, &config, &options, &cache).unwrap();
    let key = compiled.report.block_keys[0];
    let bundle = cache.get(&key).0.expect("just compiled");

    // One stored entry, read back once: its bytes are the sample, swept
    // through the decode `DiskLayer::load` applies to what it reads.
    let disk = DiskLayer::open(dir).unwrap();
    disk.store(&key, &bundle).unwrap();
    let path = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "rbc"))
        .expect("the stored entry");
    let entry = std::fs::read(&path).unwrap();

    let case = |name, sample, accepts: Accepts| Case {
        name,
        sample,
        accepts,
        sealed: false,
    };
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, wire::REQ_PING, b"hello").unwrap();
    let cases = vec![
        Case {
            sealed: true,
            ..case(
                "disk entry",
                entry,
                Box::new(move |b| decode_entry(b, &key).is_some()),
            )
        },
        case(
            "bundle",
            encode_bundle(&bundle),
            Box::new(|b| decode_bundle(b).is_some()),
        ),
        case(
            "compile request",
            wire::encode_compile_request("client", &program, &config, &options),
            Box::new(|b| CompileRequest::decode(b).is_ok()),
        ),
        case(
            "compile response",
            CompileResponse {
                machine_program: compiled.machine_program.clone(),
                hits: 1,
                misses: 2,
                coalesced: 3,
                evictions: 4,
                evicted_bytes: 5,
                wall_us: 6,
                threads: 7,
            }
            .encode(),
            Box::new(|b| CompileResponse::decode(b).is_ok()),
        ),
        case(
            "metrics request",
            wire::encode_metrics_request(MetricsFormat::Prometheus),
            Box::new(|b| wire::decode_metrics_request(b).is_ok()),
        ),
        case(
            "metrics response",
            MetricsResponse {
                format: MetricsFormat::Prometheus,
                body: "rawcc_telemetry_enabled 1\n".into(),
            }
            .encode(),
            Box::new(|b| MetricsResponse::decode(b).is_ok()),
        ),
        case(
            "error",
            wire::encode_error(wire::errcode::BAD_PROGRAM, "boom"),
            Box::new(|b| wire::decode_error(b).is_ok()),
        ),
        case(
            "frame",
            frame,
            Box::new(|mut b| wire::read_frame(&mut b).is_ok()),
        ),
    ];
    (cases, EntryFile { disk, key, path })
}

#[test]
fn every_decoder_is_total() {
    let dir = std::env::temp_dir().join(format!("rawcc-codec-total-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cases, entry_file) = cases(&dir);
    for case in &cases {
        let Case { name, sample, .. } = case;
        assert!((case.accepts)(sample), "{name}: the sample itself decodes");
        // Every truncation is rejected — bar the one prefix that is a message
        // in its own right: an empty metrics request means Prometheus text.
        for n in 0..sample.len() {
            let bare_scrape = *name == "metrics request" && n == 0;
            assert!(
                !(case.accepts)(&sample[..n]) || bare_scrape,
                "{name}: accepted its own {n}-byte prefix"
            );
        }
        // Every single-bit flip returns: a checksummed format rejects it, the
        // others may decode to a different message.
        let mut bytes = sample.clone();
        for bit in 0..sample.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            let accepted = (case.accepts)(&bytes);
            assert!(
                !(accepted && case.sealed),
                "{name}: accepted bit flip {bit}"
            );
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
    // Random bytes, bare and behind each sample's first half (so the decoders
    // get past their headers), return from every decoder.
    let mut rng = raw_testkit::Rng::new(0x5eed);
    for _ in 0..500 {
        let n = (rng.next_u64() % 256) as usize;
        let noise: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
        for case in &cases {
            let _ = (case.accepts)(&noise);
            let mut spliced = case.sample[..case.sample.len() / 2].to_vec();
            spliced.extend_from_slice(&noise);
            let _ = (case.accepts)(&spliced);
        }
    }
    // The file path itself: a torn and a bit-flipped entry file each read
    // as absent and count as a reject.
    let EntryFile { disk, key, path } = entry_file;
    let entry = std::fs::read(&path).unwrap();
    let mut flipped = entry.clone();
    *flipped.last_mut().unwrap() ^= 1;
    for (n, bad) in [&entry[..entry.len() - 1], &flipped]
        .into_iter()
        .enumerate()
    {
        std::fs::write(&path, bad).unwrap();
        assert!(disk.load(&key).is_none(), "corrupt entry file {n} loaded");
        assert_eq!(disk.rejects(), n as u64 + 1, "corrupt entry file {n}");
    }
    std::fs::write(&path, &entry).unwrap();
    assert!(disk.load(&key).is_some(), "the intact entry file loads");
    assert_eq!(disk.rejects(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
