//! Trace capture and replay.
//!
//! Users with their own address traces (e.g. converted ChampSim traces)
//! can drive the simulator without the synthetic generators:
//!
//! * [`capture`] records any [`Workload`]'s next *n* instructions into a
//!   [`Trace`];
//! * [`Trace::to_writer`] / [`Trace::from_reader`] serialize to a
//!   compact binary format (16 bytes/record);
//! * [`TraceReplay`] plays a trace back as a `Workload`, looping at the
//!   end;
//! * [`TraceCache`] captures each distinct (benchmark, scale, seed,
//!   length) stream exactly once and shares the immutable [`Trace`]
//!   across any number of replays via [`Arc`].
//!
//! # On-disk format
//!
//! Little-endian records of `(ip: u64, packed_addr: u64)` after an
//! 8-byte magic and an 8-byte record count. `packed_addr` keeps the
//! 57-bit virtual address in the low bits and flags in the top bits:
//! bit 63 = has memory op, bit 62 = store, bit 61 = address-dependent.
//! A non-memory record's `packed_addr` is 0.
//!
//! # In-memory layout
//!
//! A [`Trace`] does not hold the file's records. Streams use a handful of
//! distinct IPs and about half their records touch no memory, so a
//! trace keeps:
//!
//! * a table of its distinct IPs, in first-seen order;
//! * one `u32` head per record: bit 31 marks a memory op, the low bits
//!   index the IP table;
//! * the `packed_addr` word of each memory record only, in order;
//! * the count of memory records before each 64-record block, so
//!   [`Trace::get`] finds a payload in O(1).
//!
//! [`capture`] reserves a payload slot for every record up front, so it
//! never reallocates; the slots of non-memory records are never written,
//! so their pages need not become resident. [`TraceReplay`] walks the
//! heads in order with a payload cursor beside its position, so
//! sequential decode never consults the block counts. The file format
//! above is unchanged by this layout: [`Trace::to_writer`] rebuilds each
//! 16-byte record from its head and payload.
//!
//! # Example
//!
//! ```
//! use atc_workloads::{trace, BenchmarkId, Scale, Workload};
//!
//! let mut wl = BenchmarkId::Mcf.build(Scale::Test, 1);
//! let t = trace::capture(wl.as_mut(), 1000);
//! let mut buf = Vec::new();
//! t.to_writer(&mut buf).unwrap();
//! let t2 = trace::Trace::from_reader(&buf[..]).unwrap();
//! assert_eq!(t.len(), t2.len());
//! let mut replay = trace::TraceReplay::new(t2);
//! assert_eq!(replay.next_instr(), t.get(0));
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use atc_types::VirtAddr;

use crate::{BenchmarkId, Instr, MemOp, Scale, Workload};

/// File magic: "ATCTRACE" truncated to 8 bytes.
const MAGIC: [u8; 8] = *b"ATCTRC01";

const FLAG_MEM: u64 = 1 << 63;
const FLAG_STORE: u64 = 1 << 62;
const FLAG_DEP: u64 = 1 << 61;
const ADDR_MASK: u64 = (1 << 57) - 1;
/// Bits 57–60 are reserved: [`pack`] never sets them, so a record with
/// any of them set was not produced by this writer.
const RESERVED_MASK: u64 = !(FLAG_MEM | FLAG_STORE | FLAG_DEP | ADDR_MASK);
/// Pre-allocation cap for the record vectors: a corrupt header count
/// must not drive `Vec::with_capacity` into an OOM abort before the
/// truncated body is even read.
const PREALLOC_CAP: usize = 1 << 20;

/// Head bit marking a memory record; the low 31 bits index the IP table.
const HEAD_MEM: u32 = 1 << 31;
/// Most records a [`Trace`] holds, so every IP index fits a head and
/// every memory-record count a `u32`.
const MAX_RECORDS: usize = HEAD_MEM as usize;
/// Records per block of the memory-record count index.
const BLOCK: usize = 64;
/// Slots in [`IpTable`]'s direct-mapped memo.
const MEMO_SLOTS: usize = 64;
/// Memo slot holding no IP (a real index is below [`HEAD_MEM`]).
const MEMO_EMPTY: u32 = u32::MAX;

/// A captured instruction trace (see the module docs for its layout).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    ips: IpTable,
    /// One head per record: [`HEAD_MEM`] | index into `ips`.
    heads: Vec<u32>,
    /// The packed address/flag word of each memory record.
    payloads: Vec<u64>,
    /// `blocks[b]` counts the memory records in `heads[..b * BLOCK]`.
    blocks: Vec<u32>,
}

/// A trace's distinct IPs in first-seen order, with the lookup that
/// interns them: a direct-mapped memo in front of a hash map keeps the
/// per-record lookup O(1) and, for the few hot IPs a stream has, free
/// of hashing.
#[derive(Debug, Clone)]
struct IpTable {
    ips: Vec<u64>,
    memo: [(u64, u32); MEMO_SLOTS],
    index: HashMap<u64, u32>,
}

impl Default for IpTable {
    fn default() -> Self {
        IpTable {
            ips: Vec::new(),
            memo: [(0, MEMO_EMPTY); MEMO_SLOTS],
            index: HashMap::new(),
        }
    }
}

/// The table's content is its IPs; the memo and index are derived.
impl PartialEq for IpTable {
    fn eq(&self, other: &Self) -> bool {
        self.ips == other.ips
    }
}

impl Eq for IpTable {}

impl IpTable {
    /// The table index of `ip`, appending it on first sight.
    #[inline]
    fn intern(&mut self, ip: u64) -> u32 {
        // Fibonacci hash: the top 6 bits pick one of the 64 slots.
        let slot = (ip.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58) as usize;
        let (memo_ip, idx) = self.memo[slot];
        if memo_ip == ip && idx != MEMO_EMPTY {
            return idx;
        }
        self.intern_miss(ip, slot)
    }

    /// [`intern`](Self::intern) past a memo miss, kept out of line so
    /// the per-record path stays small.
    ///
    /// # Panics
    ///
    /// Panics past 2^31 distinct IPs, which a head cannot index.
    #[cold]
    #[inline(never)]
    fn intern_miss(&mut self, ip: u64, slot: usize) -> u32 {
        let ips = &mut self.ips;
        let idx = *self.index.entry(ip).or_insert_with(|| {
            let idx = u32::try_from(ips.len())
                .ok()
                .filter(|&i| i < HEAD_MEM)
                .expect("trace exceeds 2^31 distinct IPs");
            ips.push(ip);
            idx
        });
        self.memo[slot] = (ip, idx);
        idx
    }
}

fn pack(i: &Instr) -> (u64, u64) {
    let packed = match i.op {
        None => 0,
        Some(MemOp::Load(a)) => FLAG_MEM | (a.raw() & ADDR_MASK) | if i.dep { FLAG_DEP } else { 0 },
        Some(MemOp::Store(a)) => {
            FLAG_MEM | FLAG_STORE | (a.raw() & ADDR_MASK) | if i.dep { FLAG_DEP } else { 0 }
        }
    };
    (i.ip, packed)
}

fn unpack(ip: u64, packed: u64) -> Instr {
    if packed & FLAG_MEM == 0 {
        return Instr::alu(ip);
    }
    let addr = VirtAddr::new(packed & ADDR_MASK);
    let dep = packed & FLAG_DEP != 0;
    let op = if packed & FLAG_STORE != 0 {
        MemOp::Store(addr)
    } else {
        MemOp::Load(addr)
    };
    Instr {
        ip,
        op: Some(op),
        dep,
    }
}

/// Bytes a `len`-record trace reserves: a 4-byte head and an 8-byte
/// payload slot per record, plus a 4-byte count per 64-record block.
/// The IP table (a few entries per stream) is excluded.
fn reserved_bytes(len: usize) -> usize {
    len * (4 + 8) + len.div_ceil(BLOCK) * 4
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for `n` records. Payload slots are
    /// reserved for every record so a capture never reallocates; the
    /// slots of non-memory records are never written, so their pages
    /// need not become resident.
    fn with_capacity(n: usize) -> Self {
        Trace {
            ips: IpTable::default(),
            heads: Vec::with_capacity(n),
            payloads: Vec::with_capacity(n),
            blocks: Vec::with_capacity(n.div_ceil(BLOCK)),
        }
    }

    /// Append one instruction.
    pub fn push(&mut self, i: &Instr) {
        let (ip, packed) = pack(i);
        self.push_packed(ip, packed);
    }

    /// Append one record in its on-disk form.
    ///
    /// # Panics
    ///
    /// Panics past 2^32 memory records, which a block count cannot hold.
    fn push_packed(&mut self, ip: u64, packed: u64) {
        if self.heads.len().is_multiple_of(BLOCK) {
            let before =
                u32::try_from(self.payloads.len()).expect("trace exceeds 2^32 memory records");
            self.blocks.push(before);
        }
        let mut head = self.ips.intern(ip);
        if packed & FLAG_MEM != 0 {
            head |= HEAD_MEM;
            self.payloads.push(packed);
        }
        self.heads.push(head);
    }

    /// The instruction with head `head`, taking its payload (if it is
    /// a memory op) at the cursor `pay` and advancing the cursor.
    #[inline]
    fn decode(&self, head: u32, pay: &mut usize) -> Instr {
        let ip = self.ips.ips[(head & !HEAD_MEM) as usize];
        if head & HEAD_MEM == 0 {
            return Instr::alu(ip);
        }
        *pay += 1;
        unpack(ip, self.payloads[*pay - 1])
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Heap bytes the stream's records reserve, used to size the
    /// suite-wide trace cache: 4 bytes of head and 8 of payload slot per
    /// record plus 4 per 64-record block, as a function of
    /// [`len`](Self::len) only. The few-entry IP table is excluded.
    pub fn size_bytes(&self) -> usize {
        reserved_bytes(self.len())
    }

    /// The `idx`-th instruction.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> Instr {
        let head = self.heads[idx];
        let start = idx - idx % BLOCK;
        let mut pay = self.blocks[idx / BLOCK] as usize
            + self.heads[start..idx]
                .iter()
                .filter(|&&h| h & HEAD_MEM != 0)
                .count();
        self.decode(head, &mut pay)
    }

    /// Serialize to a writer (16 bytes per record plus a 16-byte
    /// header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn to_writer<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&MAGIC)?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        let mut pay = 0;
        for &head in &self.heads {
            let (ip, packed) = pack(&self.decode(head, &mut pay));
            w.write_all(&ip.to_le_bytes())?;
            w.write_all(&packed.to_le_bytes())?;
        }
        Ok(())
    }

    /// Deserialize from a reader.
    ///
    /// Every field is validated, so a truncated, bit-flipped, or
    /// hostile input fails with a diagnostic instead of panicking or
    /// aborting: the record count only bounds allocation up to a fixed
    /// cap (a corrupt count cannot trigger OOM), and each record's flag
    /// bits must be a combination [`pack`] can produce (reserved bits
    /// 57–60 clear; store/dependence flags only on memory records).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic, corrupt flag bits, more
    /// records than a [`Trace`] holds (2^31), or (via `UnexpectedEof`)
    /// truncated input, and propagates I/O errors.
    pub fn from_reader<R: Read>(mut r: R) -> io::Result<Trace> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an ATC trace",
            ));
        }
        let mut len8 = [0u8; 8];
        r.read_exact(&mut len8)?;
        let n = u64::from_le_bytes(len8) as usize;
        let mut t = Trace::with_capacity(n.min(PREALLOC_CAP));
        let mut rec = [0u8; 16];
        for idx in 0..n {
            r.read_exact(&mut rec)?;
            if idx == MAX_RECORDS {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("more than {MAX_RECORDS} records"),
                ));
            }
            let ip = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let packed = u64::from_le_bytes(rec[8..].try_into().expect("8 bytes"));
            let bad = if packed & FLAG_MEM == 0 {
                // ALU records carry no payload: any set bit means the
                // flags were corrupted (e.g. a store flag without the
                // memory flag).
                packed != 0
            } else {
                packed & RESERVED_MASK != 0
            };
            if bad {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("record {idx}: invalid flag bits {packed:#018x}"),
                ));
            }
            t.push_packed(ip, packed);
        }
        Ok(t)
    }
}

/// Instructions [`capture`] pulls from the workload per
/// [`Workload::next_batch`] call.
const CAPTURE_BATCH: usize = 1024;

/// Record the next `n` instructions of a workload.
///
/// The workload is pulled through [`Workload::next_batch`], which yields
/// the same stream as `n` calls of `next_instr`, so the dynamic dispatch
/// is paid once per [`CAPTURE_BATCH`] records.
pub fn capture(wl: &mut dyn Workload, n: usize) -> Trace {
    let mut t = Trace::with_capacity(n);
    let mut buf = Vec::with_capacity(CAPTURE_BATCH);
    let mut left = n;
    while left > 0 {
        let k = left.min(CAPTURE_BATCH);
        wl.next_batch(&mut buf, k);
        for i in &buf {
            t.push(i);
        }
        left -= k;
    }
    t
}

/// Replays a [`Trace`] as an infinite [`Workload`] (wrapping around at
/// the end).
///
/// The trace is held behind an [`Arc`], so any number of concurrent
/// replays (one per sweep job) share a single captured stream without
/// copying it.
#[derive(Debug, Clone)]
pub struct TraceReplay {
    trace: Arc<Trace>,
    pos: usize,
    /// Index of the next memory record's payload.
    pay: usize,
}

impl TraceReplay {
    /// Wrap a trace for replay.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn new(trace: Trace) -> Self {
        Self::shared(Arc::new(trace))
    }

    /// Replay an already-shared trace without copying it.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn shared(trace: Arc<Trace>) -> Self {
        assert!(!trace.is_empty(), "cannot replay an empty trace");
        TraceReplay {
            trace,
            pos: 0,
            pay: 0,
        }
    }
}

impl Workload for TraceReplay {
    fn name(&self) -> &'static str {
        "trace-replay"
    }

    fn next_instr(&mut self) -> Instr {
        let t = &*self.trace;
        let i = t.decode(t.heads[self.pos], &mut self.pay);
        self.pos += 1;
        if self.pos == t.len() {
            self.pos = 0;
            self.pay = 0;
        }
        i
    }

    /// Chunked decode: walk contiguous head runs, splitting only at the
    /// wrap point, instead of one bounds-checked `get` per record.
    fn next_batch(&mut self, out: &mut Vec<Instr>, n: usize) {
        out.clear();
        out.reserve(n);
        let t = &*self.trace;
        let len = t.len();
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(len - self.pos);
            let pay = &mut self.pay;
            out.extend(
                t.heads[self.pos..self.pos + take]
                    .iter()
                    .map(|&head| t.decode(head, pay)),
            );
            self.pos += take;
            if self.pos == len {
                self.pos = 0;
                self.pay = 0;
            }
            remaining -= take;
        }
    }
}

/// Identifies one deterministic instruction stream: which generator,
/// at which scale and seed, truncated to how many instructions.
///
/// The synthetic generators are pure functions of (benchmark, scale,
/// seed), so two jobs with equal keys consume byte-identical streams
/// and can share one capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamKey {
    /// The workload generator.
    pub bench: BenchmarkId,
    /// Problem-size scale the generator was built at.
    pub scale: Scale,
    /// Generator seed.
    pub seed: u64,
    /// Instructions captured (warmup + measure of the consuming run).
    pub len: u64,
}

/// Suite-wide cache of captured instruction streams.
///
/// Each distinct [`StreamKey`] is captured exactly once — lazily, the
/// first time a job asks for it — and every subsequent request gets a
/// clone of the same `Arc<Trace>`. Initialization is keyed per stream:
/// two workers racing on the *same* key block on one capture, while
/// captures of *different* keys proceed concurrently (the map mutex is
/// only held to look up the per-key [`OnceLock`], never during capture).
/// Captured streams stay resident for the life of the cache.
#[derive(Debug, Default)]
pub struct TraceCache {
    cells: Mutex<HashMap<StreamKey, Arc<OnceLock<Arc<Trace>>>>>,
}

impl TraceCache {
    /// An empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Bytes the stream `key` describes reserves once captured, equal
    /// to its [`Trace::size_bytes`]: 12 bytes per instruction plus 4 per
    /// 64 instructions.
    pub fn stream_bytes(key: StreamKey) -> usize {
        reserved_bytes(key.len as usize)
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<StreamKey, Arc<OnceLock<Arc<Trace>>>>> {
        self.cells.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The shared trace for `key`, capturing it on first use.
    pub fn get(&self, key: StreamKey) -> Arc<Trace> {
        let cell = Arc::clone(self.lock().entry(key).or_default());
        cell.get_or_init(|| {
            let mut wl = key.bench.build(key.scale, key.seed);
            Arc::new(capture(wl.as_mut(), key.len as usize))
        })
        .clone()
    }

    /// A replay workload over the shared trace for `key`.
    pub fn replay(&self, key: StreamKey) -> TraceReplay {
        TraceReplay::shared(self.get(key))
    }

    /// Number of captured streams.
    pub fn streams(&self) -> usize {
        self.lock().values().filter(|c| c.get().is_some()).count()
    }

    /// Total heap footprint of all captured streams, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.lock()
            .values()
            .filter_map(|c| c.get())
            .map(|t| t.size_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchmarkId, Scale};

    #[test]
    fn pack_unpack_round_trips_all_kinds() {
        let cases = [
            Instr::alu(0x400),
            Instr::load(0x401, VirtAddr::new(0xdead_beef)),
            Instr::load_dep(0x402, VirtAddr::new((1 << 57) - 1)),
            Instr::store(0x403, VirtAddr::new(0)),
        ];
        for c in cases {
            let (ip, packed) = pack(&c);
            assert_eq!(unpack(ip, packed), c);
        }
    }

    #[test]
    fn capture_then_serialize_round_trips() {
        let mut wl = BenchmarkId::Pr.build(Scale::Test, 9);
        let t = capture(wl.as_mut(), 5_000);
        assert_eq!(t.len(), 5_000);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        assert_eq!(buf.len(), 16 + 16 * 5_000);
        let t2 = Trace::from_reader(&buf[..]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn replay_matches_and_wraps() {
        let mut wl = BenchmarkId::Canneal.build(Scale::Test, 2);
        let t = capture(wl.as_mut(), 100);
        let mut rp = TraceReplay::new(t.clone());
        for i in 0..100 {
            assert_eq!(rp.next_instr(), t.get(i));
        }
        // Wraps around.
        assert_eq!(rp.next_instr(), t.get(0));
        assert_eq!(rp.name(), "trace-replay");
    }

    #[test]
    fn batched_decode_matches_scalar_replay_across_wraps() {
        let mut wl = BenchmarkId::Mis.build(Scale::Test, 11);
        let t = capture(wl.as_mut(), 97); // prime length: every batch size misaligns
        for batch in [1usize, 7, 64, 250] {
            let mut scalar = TraceReplay::new(t.clone());
            let mut batched = TraceReplay::new(t.clone());
            let mut buf = Vec::new();
            let mut seen = 0usize;
            while seen < 500 {
                let n = batch.min(500 - seen);
                batched.next_batch(&mut buf, n);
                assert_eq!(buf.len(), n);
                for i in &buf {
                    assert_eq!(*i, scalar.next_instr(), "batch={batch} at {seen}");
                    seen += 1;
                }
            }
            // Both replays must sit at the same wrapped position.
            assert_eq!(batched.pos, 500 % 97);
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let buf = b"NOTATRACE_______".to_vec();
        assert!(Trace::from_reader(&buf[..]).is_err());
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut wl = BenchmarkId::Mcf.build(Scale::Test, 3);
        let t = capture(wl.as_mut(), 10);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        buf.truncate(buf.len() - 4);
        assert!(Trace::from_reader(&buf[..]).is_err());
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_replay_panics() {
        TraceReplay::new(Trace::new());
    }

    #[test]
    fn cache_captures_each_key_once_and_shares_it() {
        let cache = TraceCache::new();
        let key = StreamKey {
            bench: BenchmarkId::Pr,
            scale: Scale::Test,
            seed: 42,
            len: 300,
        };
        let a = cache.get(key);
        let b = cache.get(key);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one capture");
        assert_eq!(cache.streams(), 1);
        assert_eq!(cache.footprint_bytes(), TraceCache::stream_bytes(key));

        // A different seed is a different stream.
        let c = cache.get(StreamKey { seed: 43, ..key });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.streams(), 2);

        // The cached stream is exactly what a fresh generator yields.
        let mut wl = BenchmarkId::Pr.build(Scale::Test, 42);
        let direct = capture(wl.as_mut(), 300);
        assert_eq!(*a, direct);

        // Replays over the shared trace start at position 0 each.
        let mut r0 = cache.replay(key);
        let mut r1 = cache.replay(key);
        assert_eq!(r0.next_instr(), direct.get(0));
        assert_eq!(r0.next_instr(), direct.get(1));
        assert_eq!(r1.next_instr(), direct.get(0));
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = Arc::new(TraceCache::new());
        let key = StreamKey {
            bench: BenchmarkId::Canneal,
            scale: Scale::Test,
            seed: 7,
            len: 200,
        };
        let traces: Vec<Arc<Trace>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || cache.get(key))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.streams(), 1, "racing threads must capture once");
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }

    #[test]
    fn huge_header_count_does_not_preallocate() {
        // A 16-byte "trace" claiming u64::MAX records must fail on the
        // missing body, not abort allocating 256 EiB up front.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let err = Trace::from_reader(&buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn corrupt_flag_bits_are_rejected() {
        let cases: [(u64, &str); 4] = [
            (FLAG_STORE, "store without mem"),
            (FLAG_DEP | 0x42, "dep without mem"),
            (FLAG_MEM | (1 << 57), "reserved bit 57"),
            (FLAG_MEM | FLAG_STORE | (1 << 60), "reserved bit 60"),
        ];
        for (packed, what) in cases {
            let mut buf = MAGIC.to_vec();
            buf.extend_from_slice(&1u64.to_le_bytes());
            buf.extend_from_slice(&0x400u64.to_le_bytes());
            buf.extend_from_slice(&packed.to_le_bytes());
            let err = Trace::from_reader(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        // A valid record with every legal flag still parses.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&0x400u64.to_le_bytes());
        buf.extend_from_slice(&(FLAG_MEM | FLAG_STORE | FLAG_DEP | 0x1234).to_le_bytes());
        assert_eq!(Trace::from_reader(&buf[..]).unwrap().len(), 1);
    }

    #[test]
    fn random_truncations_error_and_never_panic() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(0xace);
        let mut wl = BenchmarkId::Tc.build(Scale::Test, 4);
        let t = capture(wl.as_mut(), 200);
        let mut buf = Vec::new();
        t.to_writer(&mut buf).unwrap();
        for _ in 0..200 {
            let cut = rng.next_below(buf.len() as u64) as usize;
            let short = &buf[..cut];
            if cut == buf.len() {
                continue;
            }
            // Truncation can only land mid-structure: header, count, or
            // a record. All must surface as an error.
            assert!(Trace::from_reader(short).is_err(), "cut at {cut} parsed");
        }
    }

    #[test]
    fn random_bit_flips_parse_or_error_but_never_panic() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(0xbadc0de);
        let mut wl = BenchmarkId::Mis.build(Scale::Test, 7);
        let t = capture(wl.as_mut(), 100);
        let mut clean = Vec::new();
        t.to_writer(&mut clean).unwrap();
        for _ in 0..500 {
            let mut buf = clean.clone();
            // Flip 1–4 random bits anywhere in the file.
            for _ in 0..=rng.next_below(3) {
                let byte = rng.next_below(buf.len() as u64) as usize;
                let bit = rng.next_below(8) as u32;
                buf[byte] ^= 1 << bit;
            }
            // Must either parse (flip hit an ip/address payload) or
            // error (magic, count, or flag corruption) — never panic.
            let _ = Trace::from_reader(&buf[..]);
        }
    }

    #[test]
    fn flag_corruption_in_reserved_bits_always_errors() {
        let mut rng = atc_types::rng::SimRng::seed_from_u64(99);
        let mut wl = BenchmarkId::Bf.build(Scale::Test, 5);
        let t = capture(wl.as_mut(), 50);
        let mut clean = Vec::new();
        t.to_writer(&mut clean).unwrap();
        for _ in 0..100 {
            let mut buf = clean.clone();
            // Set a reserved bit (57–60) in a random record whose
            // memory flag is set; the packed word is the second u64 of
            // each 16-byte record, little-endian, so bits 57–60 live in
            // its last byte.
            let rec = rng.next_below(50) as usize;
            let flag_byte = 16 + rec * 16 + 15;
            if buf[flag_byte] & 0x80 == 0 {
                continue; // ALU record: any set bit already errors.
            }
            // Bits 57–60 of the packed word are bits 1–4 of its top
            // byte.
            buf[flag_byte] |= 2 << rng.next_below(4);
            let err = Trace::from_reader(&buf[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
