//! Content-addressed block cache for the parallel compile pipeline.
//!
//! [`compile_block`](crate::driver::compile_block) is a pure function of
//! *(block IR, data layout, machine config, compiler options)*, so its result —
//! a [`BlockBundle`] — can be cached under a key derived from exactly those
//! inputs and replayed for any identical block: unroll clones inside one
//! program, repeated compiles in a bench loop, concurrent clients of the
//! compile service, or (with the on-disk layer) compiles in a later process.
//!
//! # Key construction
//!
//! The key hashes the **canonical** encoding of the block: `ValueId`s are
//! renumbered by first appearance, so two blocks that are identical up to the
//! program-global value numbering (e.g. unroll clones) share a key. Jump
//! *targets* are excluded — they only affect the link phase, which reads the
//! program directly — but the *presence* of a branch and its (canonical)
//! condition value are included because they change codegen. Source spans are
//! included because they flow into [`ProvRecord`](crate::provenance::ProvRecord)s.
//! The data-layout, machine-config, and compiler-option fingerprints are
//! appended; [`CompilerOptions::threads`](crate::options::CompilerOptions) is
//! deliberately left out of the fingerprint because thread count cannot change
//! any artifact (enforced by `tests/parallel_determinism.rs`).
//!
//! Keys are 128 bits of `codec::hash128` (the codec's one content hash,
//! which also checksums disk entries and keys the daemon's memo) and the
//! on-disk format additionally stores the full key, so a mis-filed entry is
//! rejected rather than served. The hash is not collision-resistant: a
//! directory shared with an adversary can still serve a forged bundle.
//!
//! # Cache invariants
//!
//! [`BlockCache`] is the only cache: one shard for an in-process compile's
//! worker pool, `N` for the compile service's concurrent clients.
//!
//! 1. **Shard residency**: a key lives only in shard `key.lo & mask` (the low
//!    bits of the hash's folded multiply are already uniform; a `codec` test
//!    holds 10 000 consecutive inputs to an even spread over 16 shards);
//!    shard locks are never held two at a time, so there is no lock
//!    ordering to get wrong and no deadlock.
//! 2. **Single-flight**: per shard, at most one thread computes a given key at
//!    a time. A key in `inflight` has exactly one *leader*; everyone else
//!    waits on the shard condvar and re-checks on wake. However the leader
//!    leaves — bundle inserted or compute panicked — its Drop guard removes
//!    the inflight mark and wakes all waiters, so a panic can never strand a
//!    key: the first waiter to wake becomes the new leader.
//! 3. **Byte budget**: the global bounds are split evenly across shards; each
//!    shard FIFO-evicts past `budget / n_shards` encoded bytes (and
//!    `capacity / n_shards` bundles), so total residency is bounded no matter
//!    which client fills it.
//! 4. **Counter consistency**: `hits + misses` equals the number of
//!    [`get_or_compute`](BlockCache::get_or_compute) calls that returned, and
//!    `coalesced ≤ hits` (a coalesced request is a hit that waited on an
//!    in-flight leader). A compile therefore reports exactly one miss per
//!    distinct block key at any worker count.
//! 5. **Disk durability**: with a disk layer ([`BlockCache::with_disk`] or
//!    [`BlockCache::on_disk`]), bundles are also persisted as one file per
//!    key with a versioned header and a payload checksum, written
//!    tmp-then-rename. Entries are **never trusted blindly**: a truncated,
//!    bit-flipped, wrong-version, or wrong-key file fails validation, is
//!    ignored, and is overwritten by the fresh compile. That a hit equals a
//!    fresh compile is checked by comparing outputs (`compile --selfcheck`,
//!    `tests/parallel_determinism.rs`), not by the cache itself.

use crate::codec::{self, hash128, Codec, FORMAT_VERSION};
use crate::driver::BlockReport;
use crate::layout::DataLayout;
use crate::options::CompilerOptions;
use crate::provenance::NO_PROV;
use crate::regalloc::AllocResult;
use raw_machine::isa::RoutePairs;
use raw_machine::{MachineConfig, TileId};
use raw_telemetry::Counter;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// Default in-memory capacity (bundles), evicted FIFO beyond this; also the
/// compile daemon's bound.
pub(crate) const DEFAULT_CAPACITY: usize = 4096;
/// Default in-memory byte budget (sum of encoded bundle sizes), evicted FIFO
/// beyond this.
const DEFAULT_BYTE_BUDGET: usize = 64 << 20;

/// 128-bit content-address of one block compilation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Low half of the content hash of the canonical input bytes; its low
    /// bits pick the shard.
    pub lo: u64,
    /// High half of the same hash.
    pub hi: u64,
}

impl CacheKey {
    /// Stable file name of this key's on-disk entry.
    fn file_name(&self) -> String {
        format!("{:016x}{:016x}.rbc", self.lo, self.hi)
    }
}

/// One tile's switch ops for a block, in schedule order: `(route pairs,
/// producing node id)` per op ([`NO_PROV`] when the moved value has no
/// defining node).
pub type TileSwitchOps = Vec<(RoutePairs, u32)>;

/// Everything [`compile_block`](crate::driver::compile_block) produces for one
/// block, in block-relative form (node ids instead of absolute provenance
/// record ids), so the bundle is independent of the block's position in the
/// program and can be cached content-addressed.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockBundle {
    /// Per-block compile metrics (spills, makespan, placement audit, …).
    pub report: BlockReport,
    /// Register-allocated instruction stream per tile.
    pub phys: Vec<AllocResult>,
    /// Per-tile switch ops (see [`TileSwitchOps`]).
    pub switch: Vec<TileSwitchOps>,
    /// Tile that computes the branch condition, when the block branches.
    pub cond_producer: Option<TileId>,
    /// Node id of the branch-condition producer ([`NO_PROV`] when the block
    /// does not branch).
    pub cond_node: u32,
    /// Executing tile per task-graph node.
    pub node_tile: Vec<u32>,
    /// Placement bin per task-graph node (`u32::MAX` when unplaced).
    pub node_bin: Vec<u32>,
}

// ---------------------------------------------------------------------------
// Canonical input encoding (cache key).
// ---------------------------------------------------------------------------

pub use crate::codec::canonical_block_bytes;

/// Pre-encoded fingerprint of the per-compile environment (data layout,
/// machine config, compiler options) appended to every block's canonical bytes
/// to form its cache key.
pub struct KeyContext {
    env: Vec<u8>,
}

impl KeyContext {
    /// Encodes the environment once per compile.
    pub fn new(layout: &DataLayout, config: &MachineConfig, options: &CompilerOptions) -> Self {
        let mut env = Vec::with_capacity(256);
        FORMAT_VERSION.put(&mut env);
        layout.put(&mut env);
        // The same bytes a compile request carries, minus `threads`: worker
        // count cannot change artifacts.
        config.put(&mut env);
        options.put(&mut env);
        KeyContext { env }
    }

    /// Cache key of a block given its [`canonical_block_bytes`].
    pub fn key(&self, block_bytes: &[u8]) -> CacheKey {
        let (lo, hi) = hash128(&[block_bytes, &self.env]);
        CacheKey { lo, hi }
    }
}

// ---------------------------------------------------------------------------
// The cache.
// ---------------------------------------------------------------------------

/// Block-cache effectiveness counters of one compile, surfaced in
/// [`CompileReport`](crate::driver::CompileReport).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Blocks served from the cache (memory or disk).
    pub hits: u64,
    /// Blocks compiled fresh.
    pub misses: u64,
    /// Subset of [`hits`](Self::hits) that were coalesced onto another
    /// requester's in-flight compile of the same block (single-flight dedup).
    pub coalesced: u64,
    /// In-memory bundles evicted (FIFO) while this compile ran.
    pub evictions: u64,
    /// Encoded bytes of the evicted bundles.
    pub evicted_bytes: u64,
}

/// Point-in-time counters of a whole [`BlockCache`], from
/// [`BlockCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheTotals {
    /// Requests served from a resident in-memory bundle.
    pub hits_mem: u64,
    /// Requests served by promoting a disk entry into memory.
    pub hits_disk: u64,
    /// Requests that ran the compute closure.
    pub misses: u64,
    /// Subset of `hits_mem` that waited on another request's in-flight
    /// compute instead of recompiling (single-flight collapses).
    pub coalesced: u64,
    /// Bundles evicted by the per-shard FIFO bounds.
    pub evictions: u64,
    /// Encoded bytes those evictions released.
    pub evicted_bytes: u64,
    /// Encoded payload bytes currently resident across all shards.
    pub resident_bytes: u64,
    /// Bundles currently resident across all shards.
    pub entries: u64,
    /// On-disk entries rejected as corrupt/stale/mis-keyed.
    pub disk_rejects: u64,
}

impl CacheTotals {
    /// Total hits, memory and disk combined.
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk
    }
}

/// Eviction tally of one cache mutation: how many bundles left the in-memory
/// layer and how many encoded bytes they held.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Evicted {
    /// Bundles evicted.
    pub entries: u64,
    /// Encoded payload bytes of those bundles.
    pub bytes: u64,
}

/// Result of one [`BlockCache::get_or_compute`] call.
pub struct Fetched {
    /// The bundle, cached or freshly computed.
    pub bundle: Arc<BlockBundle>,
    /// True when the bundle was *not* computed by this call (served from
    /// memory, disk, or another requester's in-flight compile).
    pub cached: bool,
    /// True when this call blocked on another requester's in-flight compile of
    /// the same key instead of computing (single-flight dedup). Implies
    /// [`cached`](Self::cached).
    pub coalesced: bool,
    /// Evictions this call triggered.
    pub evicted: Evicted,
}

/// A map bounded by entry count *and* by the summed byte size of its values,
/// evicting in insertion order: the one eviction policy, shared by the cache
/// shards and the service's response memo.
pub(crate) struct Fifo<K, V> {
    /// Value plus the size it was inserted with (the unit of the byte bound).
    map: HashMap<K, (V, usize)>,
    order: VecDeque<K>,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

impl<K: Copy + Eq + Hash, V> Fifo<K, V> {
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        Fifo {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            max_entries,
            max_bytes,
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Summed sizes of the resident values.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }

    pub(crate) fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// Inserts `value` (replacing in place, without renewing its age, when
    /// `key` is already resident), then evicts oldest-first until both bounds
    /// hold again. A value larger than the byte bound evicts itself.
    pub(crate) fn insert(&mut self, key: K, value: V, size: usize) -> Evicted {
        match self.map.insert(key, (value, size)) {
            None => self.order.push_back(key),
            Some((_, old_size)) => self.bytes -= old_size,
        }
        self.bytes += size;
        let mut evicted = Evicted::default();
        while self.map.len() > self.max_entries || self.bytes > self.max_bytes {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if let Some((_, old_size)) = self.map.remove(&old) {
                self.bytes -= old_size;
                evicted.entries += 1;
                evicted.bytes += old_size as u64;
            }
        }
        evicted
    }
}

/// The on-disk cache layer: one versioned, checksummed file per key, written
/// tmp-then-rename so concurrent readers — including other *processes* sharing
/// the directory — never observe a torn entry.
pub struct DiskLayer {
    dir: PathBuf,
    rejects: Counter,
}

impl DiskLayer {
    /// Opens (creating if missing) a cache directory, probing writability so a
    /// read-only dir fails at construction rather than silently per entry.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or is not writable.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let probe = dir.join(format!(".probe-{}", std::process::id()));
        std::fs::write(&probe, b"rawcc")?;
        let _ = std::fs::remove_file(&probe);
        Ok(DiskLayer {
            dir,
            rejects: Counter::new(),
        })
    }

    /// Entries rejected as corrupt/stale/mis-keyed since construction.
    pub fn rejects(&self) -> u64 {
        self.rejects.get()
    }

    /// Persists `bundle` under `key` (write-then-rename, last writer wins) and
    /// returns its encoded payload length.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; callers normally treat a store as best-effort.
    pub fn store(&self, key: &CacheKey, bundle: &BlockBundle) -> std::io::Result<usize> {
        let payload = encode_bundle(bundle);
        let entry = codec::seal(key, &payload);
        // Write-then-rename so readers never observe a half-written entry.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
            key.file_name()
        ));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&entry)?;
        drop(f);
        let dst = self.dir.join(key.file_name());
        std::fs::rename(&tmp, &dst).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(payload.len())
    }

    /// Loads and validates the entry for `key`; corrupt or mis-keyed entries
    /// count as rejects and read as absent.
    pub fn load(&self, key: &CacheKey) -> Option<BlockBundle> {
        self.load_sized(key).map(|(bundle, _)| bundle)
    }

    /// Deletes the entries another format version wrote: their keys moved,
    /// so no lookup reaches them. Only a `*.rbc` file whose header carries
    /// the entry magic and a version other than the current one goes;
    /// anything else in the directory stays. Returns the entries removed.
    ///
    /// # Errors
    ///
    /// Propagates a failure to list the directory or to delete a stale entry.
    pub fn remove_stale(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_none_or(|ext| ext != "rbc") {
                continue;
            }
            let mut header = [0u8; codec::HEADER_LEN];
            let read = std::fs::File::open(&path).and_then(|mut f| f.read_exact(&mut header));
            if read.is_ok() && codec::entry_version(&header).is_some_and(|v| v != FORMAT_VERSION) {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// [`load`](Self::load) plus the entry's encoded payload length.
    fn load_sized(&self, key: &CacheKey) -> Option<(BlockBundle, usize)> {
        let path = self.dir.join(key.file_name());
        let bytes = std::fs::read(&path).ok()?;
        let decoded = decode_entry(&bytes, key);
        if decoded.is_none() && path.exists() {
            self.rejects.inc();
        }
        decoded
    }
}

/// One shard: a FIFO-bounded map plus the single-flight bookkeeping.
struct Shard {
    state: Mutex<ShardState>,
    /// Signalled whenever an inflight key resolves (inserted or abandoned).
    cv: Condvar,
}

struct ShardState {
    /// Resident bundles, sized by their encoded payload length.
    resident: Fifo<CacheKey, Arc<BlockBundle>>,
    /// Keys currently being computed by some leader thread.
    inflight: HashSet<CacheKey>,
}

/// Held by the leader of an in-flight key; dropping it clears the mark and
/// wakes the waiters — see module invariant 2.
struct Leader<'a> {
    shard: &'a Shard,
    key: CacheKey,
}

impl Drop for Leader<'_> {
    fn drop(&mut self) {
        // Removing a mark is sound whatever state a panicking thread left
        // behind, and Drop must not panic in turn.
        let mut st = self
            .shard
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.inflight.remove(&self.key);
        drop(st);
        self.shard.cv.notify_all();
    }
}

/// Thread-safe content-addressed store of [`BlockBundle`]s: `N` mutex shards
/// with single-flight dedup over a bounded in-memory layer (bundle count *and*
/// byte budget, both FIFO) plus an optional on-disk layer. See the module docs
/// for the key contract and the invariants.
pub struct BlockCache {
    shards: Box<[Shard]>,
    mask: u64,
    disk: Option<DiskLayer>,
    // Lock-free, so the daemon's scrape reads each one without touching a
    // shard.
    pub(crate) hits_mem: Counter,
    pub(crate) hits_disk: Counter,
    pub(crate) misses: Counter,
    pub(crate) coalesced: Counter,
    pub(crate) evictions: Counter,
    pub(crate) evicted_bytes: Counter,
}

impl BlockCache {
    /// A purely in-memory, single-shard cache with the default bounds.
    pub fn in_memory() -> Self {
        Self::with_budget(1, DEFAULT_CAPACITY, DEFAULT_BYTE_BUDGET)
    }

    /// A purely in-memory cache with `shards` shards (rounded up to a power of
    /// two) holding at most `capacity` bundles and `byte_budget` encoded
    /// payload bytes in total, split evenly across the shards (whichever bound
    /// bites first triggers FIFO eviction).
    pub fn with_budget(shards: usize, capacity: usize, byte_budget: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard {
                state: Mutex::new(ShardState {
                    resident: Fifo::new(
                        capacity.div_ceil(n).max(1),
                        byte_budget.div_ceil(n).max(1),
                    ),
                    inflight: HashSet::new(),
                }),
                cv: Condvar::new(),
            })
            .collect();
        BlockCache {
            shards,
            mask: (n - 1) as u64,
            disk: None,
            hits_mem: Counter::new(),
            hits_disk: Counter::new(),
            misses: Counter::new(),
            coalesced: Counter::new(),
            evictions: Counter::new(),
            evicted_bytes: Counter::new(),
        }
    }

    /// A single-shard cache backed by `dir` on disk (created if missing).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or is not writable.
    pub fn with_disk(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        Self::in_memory().on_disk(dir)
    }

    /// Attaches a disk layer at `dir` (created if missing).
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created or is not writable.
    pub fn on_disk(mut self, dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskLayer::open(dir)?);
        Ok(self)
    }

    /// On-disk entries rejected as corrupt/stale/mis-keyed since construction
    /// (0 without a disk layer).
    pub fn disk_rejects(&self) -> u64 {
        self.disk.as_ref().map_or(0, DiskLayer::rejects)
    }

    /// Counter snapshot. Individual counters are loaded independently, so a
    /// snapshot taken *while requests are in flight* may be momentarily
    /// inconsistent; quiescent snapshots are exact.
    pub fn stats(&self) -> CacheTotals {
        let (entries, resident_bytes) = self.resident();
        CacheTotals {
            hits_mem: self.hits_mem.get(),
            hits_disk: self.hits_disk.get(),
            misses: self.misses.get(),
            coalesced: self.coalesced.get(),
            evictions: self.evictions.get(),
            evicted_bytes: self.evicted_bytes.get(),
            resident_bytes,
            entries,
            disk_rejects: self.disk_rejects(),
        }
    }

    /// Bundles and their encoded bytes resident across all shards: one pass,
    /// one shard lock at a time.
    pub(crate) fn resident(&self) -> (u64, u64) {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let st = shard.state.lock().unwrap();
            entries += st.resident.len() as u64;
            bytes += st.resident.bytes() as u64;
        }
        (entries, bytes)
    }

    fn shard(&self, key: &CacheKey) -> &Shard {
        &self.shards[(key.lo & self.mask) as usize]
    }

    /// The single insert path: makes `bundle` resident under the shard's FIFO
    /// bounds and returns what that evicted.
    fn insert(&self, key: CacheKey, bundle: Arc<BlockBundle>, size: usize) -> Evicted {
        let mut st = self.shard(&key).state.lock().unwrap();
        let evicted = st.resident.insert(key, bundle, size);
        drop(st);
        self.evictions.add(evicted.entries);
        self.evicted_bytes.add(evicted.bytes);
        evicted
    }

    /// Promotes `key`'s disk entry (when there is a disk layer and a valid
    /// entry) into memory.
    fn promote(&self, key: CacheKey) -> Option<(Arc<BlockBundle>, Evicted)> {
        let (bundle, size) = self.disk.as_ref()?.load_sized(&key)?;
        let bundle = Arc::new(bundle);
        let evicted = self.insert(key, bundle.clone(), size);
        Some((bundle, evicted))
    }

    /// Looks up `key` without computing or counting: memory, then disk (a disk
    /// hit is promoted into memory). Returns the bundle and the evictions the
    /// promotion caused.
    pub fn get(&self, key: &CacheKey) -> (Option<Arc<BlockBundle>>, Evicted) {
        let st = self.shard(key).state.lock().unwrap();
        if let Some(bundle) = st.resident.get(key).cloned() {
            return (Some(bundle), Evicted::default());
        }
        drop(st);
        match self.promote(*key) {
            Some((bundle, evicted)) => (Some(bundle), evicted),
            None => (None, Evicted::default()),
        }
    }

    /// Looks up `key` in memory, then on disk; on a miss runs `compute` and
    /// stores the result. Concurrent requests for the same key are coalesced
    /// onto one `compute` call (module invariant 2).
    pub fn get_or_compute(&self, key: CacheKey, compute: impl FnOnce() -> BlockBundle) -> Fetched {
        let shard = self.shard(&key);
        let mut waited = false;
        let mut st = shard.state.lock().unwrap();
        loop {
            if let Some(bundle) = st.resident.get(&key).cloned() {
                drop(st);
                self.hits_mem.inc();
                if waited {
                    self.coalesced.inc();
                }
                return Fetched {
                    bundle,
                    cached: true,
                    coalesced: waited,
                    evicted: Evicted::default(),
                };
            }
            if st.inflight.insert(key) {
                break;
            }
            waited = true;
            st = shard.cv.wait(st).unwrap();
        }
        drop(st);
        // This thread leads `key` until `_leader` drops, after the insert.
        let _leader = Leader { shard, key };

        if let Some((bundle, evicted)) = self.promote(key) {
            self.hits_disk.inc();
            return Fetched {
                bundle,
                cached: true,
                coalesced: false,
                evicted,
            };
        }
        let bundle = Arc::new(compute());
        // The store is best-effort — a full disk or lost race never fails the
        // compile — and already knows the encoded size; only without it is
        // the bundle encoded just to be measured.
        let stored = self.disk.as_ref().and_then(|d| d.store(&key, &bundle).ok());
        let size = stored.unwrap_or_else(|| encode_bundle(&bundle).len());
        let evicted = self.insert(key, bundle.clone(), size);
        self.misses.inc();
        Fetched {
            bundle,
            cached: false,
            coalesced: false,
            evicted,
        }
    }
}

/// Parses and validates a full on-disk entry for `expect`, exactly as
/// [`DiskLayer::load`] does with the bytes it reads; any mismatch (magic,
/// version, key, length, checksum, payload shape) yields `None`. On success
/// also returns the payload length.
pub fn decode_entry(bytes: &[u8], expect: &CacheKey) -> Option<(BlockBundle, usize)> {
    let payload = codec::unseal(bytes, expect)?;
    Some((decode_bundle(payload)?, payload.len()))
}

/// Serializes a bundle to the versioned on-disk payload format.
pub fn encode_bundle(b: &BlockBundle) -> Vec<u8> {
    codec::encode(b)
}

/// Inverse of [`encode_bundle`]; `None` on any malformed or trailing input.
pub fn decode_bundle(bytes: &[u8]) -> Option<BlockBundle> {
    codec::decode(bytes)
}

// `cond_node` uses the same sentinel as provenance.
const _: () = assert!(NO_PROV == u32::MAX);
#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TileCounts;
    use crate::exact::{ExactOutcome, ExactReport, Lane};
    use crate::options::{PlacementAlgorithm, PriorityScheme, Strategy};
    use crate::partition::{PlacementLog, PlacementStep};
    use raw_ir::builder::ProgramBuilder;
    use raw_ir::{BinOp, Imm, MemHome, UnOp};
    use raw_machine::isa::{AluOp, Dir, Dst, PInst, SDst, SSrc, Src};
    use raw_machine::{LatencyModel, TileMask};
    use raw_testkit::hash64;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn sample_bundle() -> BlockBundle {
        BlockBundle {
            report: BlockReport {
                n_nodes: 3,
                n_clusters: 2,
                n_comm_paths: 1,
                makespan: 17,
                spills: 1,
                predicted: vec![
                    TileCounts {
                        issues: 2,
                        routes: 1,
                    },
                    TileCounts::default(),
                ],
                placement: PlacementLog {
                    algorithm: "greedy-swap",
                    initial_cost: 9,
                    final_cost: -3,
                    steps: vec![PlacementStep {
                        step: 5,
                        bins: (0, 1),
                        delta: -12,
                    }],
                },
                lane: Some(Lane::Exact),
                exact: Some(ExactReport {
                    outcome: ExactOutcome::Certified,
                    makespan: 17,
                    lower_bound: 17,
                    expanded: 412,
                }),
            },
            phys: vec![AllocResult {
                insts: vec![
                    PInst::Alu {
                        op: AluOp::Bin(BinOp::MulF),
                        dst: Dst::Reg(3),
                        a: Src::Reg(1),
                        b: Src::Imm(Imm::F(1.5)),
                    },
                    PInst::Load {
                        dst: Dst::PortOut,
                        addr: Src::Reg(0),
                        offset: -4,
                    },
                    PInst::Halt,
                ],
                prov: vec![0, 1, NO_PROV],
                cond_reg: Some(7),
                n_spilled: 1,
                spill_slots: 2,
            }],
            switch: vec![vec![(
                [
                    (SSrc::Proc, SDst::Dir(Dir::West)),
                    (SSrc::Dir(Dir::North), SDst::Proc),
                ]
                .into_iter()
                .collect(),
                2,
            )]],
            cond_producer: Some(TileId::from_raw(1)),
            cond_node: 2,
            node_tile: vec![0, 1, 0],
            node_bin: vec![0, 1, u32::MAX],
        }
    }

    #[test]
    fn bundle_roundtrips() {
        let b = sample_bundle();
        assert_eq!(decode_bundle(&encode_bundle(&b)).expect("roundtrip"), b);
    }

    #[test]
    fn canonical_bytes_ignore_global_value_numbering() {
        // The same computation built twice, the second time after burning a few
        // ValueIds in another block, must hash identically.
        let build = |pad: usize| {
            let mut b = ProgramBuilder::new("canon");
            let out = b.var_i32("out", 0);
            let next = b.new_block("body");
            for i in 0..pad {
                let pad_var = b.var_i32(format!("pad{i}"), 0);
                let v = b.const_i32(i as i32);
                b.write_var(pad_var, v);
            }
            b.jump(next);
            b.switch_to(next);
            let x = b.read_var(out);
            let y = b.const_i32(7);
            let p = b.mul(x, y);
            b.write_var(out, p);
            b.halt();
            b.finish().unwrap()
        };
        let a = build(0);
        let b = build(3);
        let block_a = a.block(raw_ir::BlockId::from_raw(1));
        let block_b = b.block(raw_ir::BlockId::from_raw(1));
        assert_eq!(
            canonical_block_bytes(block_a),
            canonical_block_bytes(block_b)
        );
    }

    /// A one-block program exercising loads, stores, both immediates and the
    /// float conversions.
    fn key_program() -> raw_ir::Program {
        let mut b = ProgramBuilder::new("pinned");
        let out = b.var_i32("out", 0);
        let arr = b.array("a", raw_ir::Ty::I32, &[8]);
        let i = b.const_i32(3);
        let x = b.load(arr, i, 0, MemHome::Static(3));
        let y = b.const_f32(1.5);
        let z = b.un(UnOp::CvtIF, x);
        let w = b.bin(BinOp::MulF, z, y);
        let v = b.un(UnOp::CvtFI, w);
        b.store(arr, i, 0, v, MemHome::Dynamic);
        b.write_var(out, v);
        b.halt();
        b.finish().unwrap()
    }

    /// Cache key of `key_program`'s block and its encoded compile request.
    fn key_and_request(
        p: &raw_ir::Program,
        config: &MachineConfig,
        options: &CompilerOptions,
    ) -> (CacheKey, Vec<u8>) {
        let layout = DataLayout::build(p, config);
        let key =
            KeyContext::new(&layout, config, options).key(&canonical_block_bytes(p.block(p.entry)));
        let request = crate::wire::encode_compile_request("pinned", p, config, options);
        (key, request)
    }

    #[test]
    fn key_separates_options_and_config() {
        let p = key_program();
        let config = MachineConfig::square(4);
        let base = CompilerOptions::default();
        let (k1, r1) = key_and_request(&p, &config, &base);

        // Thread count reaches the server in the request bytes but must NOT
        // affect the key.
        let threaded = CompilerOptions { threads: 8, ..base };
        let (k, r) = key_and_request(&p, &config, &threaded);
        assert_eq!(k, k1);
        assert_ne!(r, r1);

        // Every semantic option changes both the key and the request bytes: a
        // field the key missed would serve stale bundles without any error.
        // (A heuristic bundle must never satisfy an exact request, so the
        // strategy and its seed are semantic too.)
        type Flip = fn(&mut CompilerOptions);
        let flips: [(&str, Flip); 7] = [
            ("clustering", |o| o.clustering = !o.clustering),
            ("placement", |o| o.placement = PlacementAlgorithm::None),
            ("priority", |o| o.priority = PriorityScheme::SourceOrder),
            ("fold_communication", |o| {
                o.fold_communication = !o.fold_communication
            }),
            ("strategy", |o| o.strategy = Strategy::Exact),
            ("strategy seed", |o| {
                o.strategy = Strategy::Portfolio { seed: 1 }
            }),
            ("exact_budget", |o| o.exact_budget = 77),
        ];
        let mut seen = vec![(k1, r1.clone())];
        for (field, flip) in flips {
            let mut options = base;
            flip(&mut options);
            let (k, r) = key_and_request(&p, &config, &options);
            assert!(
                seen.iter().all(|(sk, sr)| *sk != k && *sr != r),
                "options.{field} must change the key and the request bytes"
            );
            seen.push((k, r));
        }

        // So does every machine-config field.
        type Tweak = fn(&mut MachineConfig);
        let tweaks: [(&str, Tweak); 11] = [
            ("rows", |c| c.rows = 1),
            ("cols", |c| c.cols = 1),
            ("gprs", |c| c.gprs = 8),
            ("switch_regs", |c| c.switch_regs += 1),
            ("mem_latency", |c| c.mem_latency += 1),
            ("mem_words", |c| c.mem_words *= 2),
            ("latency", |c| c.latency = LatencyModel::Unit),
            ("port_capacity", |c| c.port_capacity += 1),
            ("dyn_fifo", |c| c.dyn_fifo += 1),
            ("step_limit", |c| c.step_limit += 1),
            ("faulty", |c| {
                c.faulty = TileMask::of(&[TileId::from_raw(2), TileId::from_raw(3)]);
            }),
        ];
        for (field, tweak) in tweaks {
            let mut changed = config.clone();
            tweak(&mut changed);
            let (k, r) = key_and_request(&p, &changed, &base);
            assert!(
                k != k1 && r != r1,
                "config.{field} must change the key and the request bytes"
            );
        }
    }

    #[test]
    fn key_and_request_bytes_are_pinned() {
        // None of the key or request bytes of this record may move: a moved
        // byte orphans every cached bundle and every daemon's memo.
        let config = MachineConfig::square(8).with_faulty(TileMask::of(&[
            TileId::from_raw(4),
            TileId::from_raw(5),
            TileId::from_raw(6),
            TileId::from_raw(7),
        ]));
        let options = CompilerOptions {
            placement: PlacementAlgorithm::None,
            strategy: Strategy::Portfolio { seed: 41 },
            exact_budget: 123_456,
            threads: 3,
            ..CompilerOptions::default()
        };
        let (key, request) = key_and_request(&key_program(), &config, &options);
        let text = format!(
            "cache_key lo={:#018x} hi={:#018x}\nrequest_bytes len={} hash={:#018x}\n",
            key.lo,
            key.hi,
            request.len(),
            hash64(&request)
        );
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/cache_key.txt");
        raw_testkit::check_golden(&path, &text);

        // The options record keeps its layout: byte 2 is reserved and written
        // as 1 ...
        assert_eq!(
            codec::encode(&CompilerOptions::default()),
            [1, 0, 1, 0, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        );
        // ... and a 0 there, from a writer that still had the boolean alias,
        // decodes to the spelling that replaced it.
        for options in [CompilerOptions::default(), options] {
            let mut bytes = codec::encode(&options);
            assert_eq!(bytes[2], 1);
            bytes[2] = 0;
            let decoded: CompilerOptions = codec::decode(&bytes).expect("still decodes");
            let expected = CompilerOptions {
                placement: PlacementAlgorithm::None,
                threads: 0,
                ..options
            };
            assert_eq!(decoded, expected);
        }
    }

    fn key(lo: u64) -> CacheKey {
        CacheKey { lo, hi: !lo }
    }

    #[test]
    fn memory_cache_evicts_fifo() {
        let cache = BlockCache::with_budget(1, 2, usize::MAX >> 1);
        let fetch = |i: u64| cache.get_or_compute(key(i), sample_bundle);
        assert_eq!(fetch(1).evicted.entries, 0);
        assert_eq!(fetch(2).evicted.entries, 0);
        assert_eq!(fetch(3).evicted.entries, 1); // evicts key 1
        assert!(cache.get(&key(1)).0.is_none());
        assert!(cache.get(&key(2)).0.is_some());
        assert!(cache.get(&key(3)).0.is_some());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.evictions, stats.entries), (3, 1, 2));
        // The oldest key is gone: fetching it again is a miss.
        assert!(!fetch(1).cached);
    }

    #[test]
    fn memory_cache_enforces_byte_budget() {
        let size = encode_bundle(&sample_bundle()).len();
        // Budget fits exactly two encoded bundles; capacity is not the limiter.
        let cache = BlockCache::with_budget(1, 16, 2 * size);
        let fetch = |i: u64| cache.get_or_compute(key(i), sample_bundle).evicted;
        assert_eq!(fetch(1), Evicted::default());
        assert_eq!(fetch(2), Evicted::default());
        assert_eq!(cache.stats().resident_bytes, 2 * size as u64);
        let ev = fetch(3); // evicts key 1 by bytes
        assert_eq!(
            ev,
            Evicted {
                entries: 1,
                bytes: size as u64
            }
        );
        assert!(cache.get(&key(1)).0.is_none());
        assert!(cache.get(&key(2)).0.is_some());
        assert!(cache.get(&key(3)).0.is_some());
        assert_eq!(cache.stats().resident_bytes, 2 * size as u64);
    }

    #[test]
    fn single_flight_collapses_duplicate_inflight_blocks() {
        let cache = BlockCache::with_budget(8, 4096, 64 << 20);
        let computes = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let fetched = cache.get_or_compute(key(42), || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Long enough that the other seven all arrive while
                        // the leader is still computing.
                        std::thread::sleep(Duration::from_millis(50));
                        sample_bundle()
                    });
                    assert_eq!(fetched.bundle.cond_node, 2);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "exactly one compute");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits(), 7);
        assert_eq!(
            stats.coalesced, 7,
            "seven requests coalesced onto the leader"
        );
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn disk_layer_shared_across_instances() {
        let dir = std::env::temp_dir().join(format!("rawcc-shard-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            BlockCache::with_budget(4, 4096, 64 << 20)
                .on_disk(&dir)
                .unwrap()
        };
        {
            let cache = open();
            cache.get_or_compute(key(7), sample_bundle);
            assert_eq!(cache.stats().misses, 1);
        }
        let cache = open();
        let fetched = cache.get_or_compute(key(7), || panic!("must hit disk"));
        assert!(fetched.cached);
        let stats = cache.stats();
        assert_eq!(stats.hits_disk, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.disk_rejects, 0);
        // Promoted at the size the entry declares, not by re-encoding.
        assert_eq!(
            stats.resident_bytes,
            encode_bundle(&sample_bundle()).len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_stale_deletes_only_other_format_versions() {
        let dir = std::env::temp_dir().join(format!("rawcc-stale-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskLayer::open(&dir).unwrap();
        disk.store(&key(1), &sample_bundle()).unwrap();
        let mut old = std::fs::read(dir.join(key(1).file_name())).unwrap();
        // The version follows the 8-byte magic.
        old[8..codec::HEADER_LEN].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        std::fs::write(dir.join(key(2).file_name()), &old).unwrap();
        std::fs::write(dir.join("x.rbc"), b"no magic here").unwrap();
        std::fs::write(dir.join("notes.txt"), &old).unwrap();

        assert_eq!(disk.remove_stale().unwrap(), 1);
        assert!(!dir.join(key(2).file_name()).exists());
        assert!(dir.join("x.rbc").exists());
        assert!(dir.join("notes.txt").exists());
        assert!(disk.load(&key(1)).is_some());
        assert_eq!(disk.rejects(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leader_panic_does_not_strand_the_key() {
        let cache = Arc::new(BlockCache::in_memory());
        let c = cache.clone();
        let crashed = std::thread::spawn(move || {
            c.get_or_compute(key(9), || panic!("leader dies mid-compute"));
        })
        .join();
        assert!(crashed.is_err(), "leader thread must have panicked");
        // The key must not be wedged: a fresh request becomes the new leader.
        let fetched = cache.get_or_compute(key(9), sample_bundle);
        assert!(!fetched.cached);
        assert_eq!(cache.stats().misses, 1);
    }
}
