//! The dense in-memory `Trace` against a plain `Vec<Instr>` reference.
//!
//! * **Reference** — every benchmark's `Scale::Test` stream, captured
//!   into a `Trace` and collected into a `Vec<Instr>` from a second
//!   generator: `get(i)` for every record, `next_instr`, and
//!   `next_batch` at batch sizes {1, 7, 64, 4096}, each across at least
//!   three wraps. The generators' own `next_batch` overrides must yield
//!   their `next_instr` stream at the same batch sizes.
//! * **Edge streams** — all non-memory, all memory, one record, and
//!   70 000 distinct IPs (more than a 16-bit head could index).
//! * **File format** — FNV-1a digests of the `to_writer` bytes of two
//!   60k-record captures, recorded from the 16-byte-per-record layout
//!   that preceded the dense one, and `from_reader(to_writer(t)) == t`.

use atc_bench::fnv1a;
use atc_types::VirtAddr;
use atc_workloads::trace::{capture, StreamKey, Trace, TraceCache, TraceReplay};
use atc_workloads::{BenchmarkId, Instr, Scale, Workload};

const BATCHES: [usize; 4] = [1, 7, 64, 4096];
const WRAPS: usize = 3;

fn to_bytes(t: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    t.to_writer(&mut buf).expect("write to a Vec");
    buf
}

/// Every read path of `t` must yield `reference`, and the trace must
/// survive a file round trip.
fn check(t: &Trace, reference: &[Instr], what: &str) {
    let len = reference.len();
    assert_eq!(t.len(), len, "{what}: length");
    for (i, want) in reference.iter().enumerate() {
        assert_eq!(t.get(i), *want, "{what}: get({i})");
    }
    // Cover at least WRAPS full passes and end mid-pass, so a cursor
    // that fails to reset at the wrap shows up.
    let total = WRAPS * len + len / 2 + 1;
    let mut rp = TraceReplay::new(t.clone());
    for k in 0..total {
        assert_eq!(
            rp.next_instr(),
            reference[k % len],
            "{what}: next_instr #{k}"
        );
    }
    for batch in BATCHES {
        let mut rp = TraceReplay::new(t.clone());
        let mut buf = Vec::new();
        let mut seen = 0;
        while seen < total.max(WRAPS * batch) {
            rp.next_batch(&mut buf, batch);
            assert_eq!(buf.len(), batch, "{what}: batch {batch}");
            for got in &buf {
                assert_eq!(*got, reference[seen % len], "{what}: batch {batch} #{seen}");
                seen += 1;
            }
        }
        // Scalar decode picks up exactly where the batches stopped.
        assert_eq!(
            rp.next_instr(),
            reference[seen % len],
            "{what}: batch {batch} then scalar"
        );
    }
    let back = Trace::from_reader(&to_bytes(t)[..]).expect("round trip");
    assert_eq!(back, *t, "{what}: from_reader(to_writer(t))");
}

fn traced(reference: &[Instr]) -> Trace {
    let mut t = Trace::new();
    for i in reference {
        t.push(i);
    }
    t
}

#[test]
fn every_benchmark_matches_the_reference() {
    // Not a multiple of the 64-record block or of any batch size.
    const LEN: usize = 4_999;
    for bench in BenchmarkId::ALL {
        let t = capture(bench.build(Scale::Test, 42).as_mut(), LEN);
        let mut wl = bench.build(Scale::Test, 42);
        let reference: Vec<Instr> = (0..LEN).map(|_| wl.next_instr()).collect();
        check(&t, &reference, bench.name());
        assert_eq!(traced(&reference), t, "{}: push vs capture", bench.name());
        check_generator(bench);
    }
}

/// `bench`'s generator decoded through `next_batch` at every batch size
/// must match the same generator driven by `next_instr`, and scalar
/// decode must pick up exactly where the batches stopped.
fn check_generator(bench: BenchmarkId) {
    const LEN: usize = 2 * 4096 + 1;
    let mut wl = bench.build(Scale::Test, 42);
    let reference: Vec<Instr> = (0..LEN).map(|_| wl.next_instr()).collect();
    for batch in BATCHES {
        let mut wl = bench.build(Scale::Test, 42);
        let mut buf = Vec::new();
        let mut seen = 0;
        while seen + batch < LEN {
            wl.next_batch(&mut buf, batch);
            assert_eq!(buf.len(), batch, "{}: batch {batch}", bench.name());
            assert_eq!(
                buf[..],
                reference[seen..seen + batch],
                "{}: generator batch {batch} at #{seen}",
                bench.name()
            );
            seen += batch;
        }
        assert_eq!(
            wl.next_instr(),
            reference[seen],
            "{}: generator batch {batch} then scalar",
            bench.name()
        );
    }
}

#[test]
fn edge_streams_match_the_reference() {
    let alu: Vec<Instr> = (0..130).map(|i| Instr::alu(0x400 + i % 3)).collect();
    check(&traced(&alu), &alu, "all non-memory");

    let mem: Vec<Instr> = (0..130u64)
        .map(|i| {
            let a = VirtAddr::new((i * 0x1040) | (1 << 56));
            match i % 3 {
                0 => Instr::load(0x500, a),
                1 => Instr::load_dep(0x501, a),
                _ => Instr::store(0x502, a),
            }
        })
        .collect();
    check(&traced(&mem), &mem, "all memory");

    let one = [Instr::store(0x7, VirtAddr::new(0x1234))];
    check(&traced(&one), &one, "single record");

    // Every record a new IP; alternate memory and non-memory records so
    // both head kinds carry indices past 2^16.
    let wide: Vec<Instr> = (0..70_000u64)
        .map(|i| {
            let ip = 0x40_0000 + i * 4;
            if i % 2 == 0 {
                Instr::alu(ip)
            } else {
                Instr::load(ip, VirtAddr::new(i << 12))
            }
        })
        .collect();
    check(&traced(&wide), &wide, "70 000 distinct IPs");
}

#[test]
fn file_bytes_are_pinned() {
    const LEN: usize = 60_000;
    let pinned = [
        (BenchmarkId::Xalancbmk, 0xd528_eacf_79c1_66e9_u64),
        (BenchmarkId::Pr, 0x2811_4ff8_36d5_2253_u64),
    ];
    for (bench, want) in pinned {
        let t = capture(bench.build(Scale::Test, 42).as_mut(), LEN);
        let bytes = to_bytes(&t);
        assert_eq!(bytes.len(), 16 + 16 * LEN, "{}: file size", bench.name());
        assert_eq!(
            fnv1a(&bytes),
            want,
            "{}: to_writer digest {:#018x}",
            bench.name(),
            fnv1a(&bytes)
        );
        let back = Trace::from_reader(&bytes[..]).expect("round trip");
        assert_eq!(back, t, "{}: from_reader(to_writer(t))", bench.name());
    }
}

/// 4 bytes of head and 8 of payload slot per record, 4 per 64-record
/// block; cache charges and trace sizes agree for every length.
#[test]
fn cache_charges_equal_trace_sizes() {
    let cache = TraceCache::new();
    for len in [1u64, 63, 64, 65, 4_999] {
        let key = StreamKey {
            bench: BenchmarkId::Mcf,
            scale: Scale::Test,
            seed: 3,
            len,
        };
        let len = len as usize;
        let reserved = len * 12 + len.div_ceil(64) * 4;
        assert_eq!(TraceCache::stream_bytes(key), reserved, "len {len}");
        assert_eq!(cache.get(key).size_bytes(), reserved, "len {len}");
    }
}
