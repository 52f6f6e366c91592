//! Every decoder of outside bytes — disk entry, bundle, each wire message, the
//! frame reader — is total: one table of samples, held to the same three
//! attacks (`codec.rs` key invariants 1 and 2).

use raw_ir::builder::ProgramBuilder;
use raw_machine::MachineConfig;
use rawcc::blockcache::{decode_bundle, encode_bundle};
use rawcc::wire::{
    self, ClientRow, CompileRequest, CompileResponse, MetricsFormat, MetricsResponse, StatsResponse,
};
use rawcc::{compile_with_cache, BlockCache, CacheTotals, CompilerOptions, DiskLayer};

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

fn cases(dir: &std::path::Path) -> Vec<Case> {
    // Real samples: one compile of a small program through every layer.
    let mut b = ProgramBuilder::new("total");
    let out = b.var_i32("out", 0);
    let x = b.const_i32(6);
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

    // The disk layer decodes whatever bytes sit in the key's entry file.
    let disk = DiskLayer::open(dir).unwrap();
    disk.store(&key, &bundle).unwrap();
    let entry_path = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "rbc"))
        .expect("the stored entry");
    let entry = std::fs::read(&entry_path).unwrap();

    let case = |name, sample, accepts: Accepts| Case {
        name,
        sample,
        accepts,
        sealed: false,
    };
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, wire::REQ_PING, b"hello").unwrap();
    vec![
        Case {
            sealed: true,
            ..case(
                "disk entry",
                entry,
                Box::new(move |b| {
                    std::fs::write(&entry_path, b).unwrap();
                    disk.load(&key).is_some()
                }),
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
            "stats response",
            StatsResponse {
                cache: CacheTotals {
                    hits_mem: 10,
                    entries: 17,
                    ..CacheTotals::default()
                },
                requests: 15,
                clients: vec![ClientRow {
                    client: "a".into(),
                    requests: 5,
                    ..ClientRow::default()
                }],
                ..StatsResponse::default()
            }
            .encode(),
            Box::new(|b| StatsResponse::decode(b).is_ok()),
        ),
        case(
            "metrics request",
            wire::encode_metrics_request(MetricsFormat::Json),
            Box::new(|b| wire::decode_metrics_request(b).is_ok()),
        ),
        case(
            "metrics response",
            MetricsResponse {
                format: MetricsFormat::Json,
                body: "{\"families\":[]}".into(),
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
    ]
}

#[test]
fn every_decoder_is_total() {
    let dir = std::env::temp_dir().join(format!("rawcc-codec-total-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cases = cases(&dir);
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
    drop(cases);
    let _ = std::fs::remove_dir_all(&dir);
}
