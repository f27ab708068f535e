//! SPP — Signature Path Prefetcher (Kim et al., MICRO 2016), simplified.
//!
//! SPP tracks, per physical page, a compressed *signature* of the recent
//! delta history and looks the signature up in a pattern table to predict
//! the next deltas, recursively walking the predicted path while the
//! compounded confidence stays above a threshold. This model keeps the
//! signature/pattern structure and the lookahead loop, and enforces the
//! page boundary on every emitted prefetch (SPP trains across pages but
//! never prefetches across them — the property Fig 8 relies on).

use std::collections::hash_map::Entry;

use atc_types::{FastMap, LineAddr};

use crate::{same_page, Candidates, PrefetchContext, PrefetchRequest, Prefetcher, MAX_DEGREE};

#[derive(Debug, Clone, Copy)]
struct PageEntry {
    signature: u16,
    last_offset: u8,
}

/// Deltas tracked per signature.
const PATTERN_DELTAS: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Pattern {
    /// delta → hit counter; the first `len` entries are live.
    deltas: [(i8, u32); PATTERN_DELTAS],
    len: u8,
    total: u32,
}

impl Pattern {
    fn train(&mut self, delta: i8) {
        self.total += 1;
        let len = self.len as usize;
        if let Some(e) = self.deltas[..len].iter_mut().find(|e| e.0 == delta) {
            e.1 += 1;
        } else if len < PATTERN_DELTAS {
            self.deltas[len] = (delta, 1);
            self.len += 1;
        } else {
            // Evict the weakest predicted delta (the first of equals),
            // moving the last entry into its slot as `swap_remove` does,
            // and append the new delta.
            let (i, _) = self
                .deltas
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.1)
                .expect("non-empty");
            self.deltas[i] = self.deltas[PATTERN_DELTAS - 1];
            self.deltas[PATTERN_DELTAS - 1] = (delta, 1);
        }
    }

    /// Best delta (the last of equals) and its confidence (0..=1).
    fn best(&self) -> Option<(i8, f64)> {
        let &(d, c) = self.deltas[..self.len as usize]
            .iter()
            .max_by_key(|e| e.1)?;
        if self.total == 0 {
            return None;
        }
        Some((d, c as f64 / self.total as f64))
    }
}

/// The SPP prefetcher.
#[derive(Debug)]
pub struct Spp {
    pages: FastMap<u64, PageEntry>,
    /// Indexed by the 12-bit signature; an untrained pattern is empty.
    patterns: Box<[Pattern]>,
}

/// Lookahead stops when compounded confidence drops below this.
const CONF_THRESHOLD: f64 = 0.4;
/// Pages tracked at once; a new page beyond this clears the table.
const PAGE_CAP: usize = 4096;
/// Signatures are 12 bits wide.
const SIGNATURES: usize = 1 << 12;
/// Signature update: `sig = (sig << 3) ^ delta`, 12 bits.
fn update_signature(sig: u16, delta: i8) -> u16 {
    ((sig << 3) ^ (delta as u16 & 0x3F)) & 0xFFF
}

impl Spp {
    /// Create an SPP prefetcher.
    pub fn new() -> Self {
        Spp {
            pages: FastMap::default(),
            patterns: vec![Pattern::default(); SIGNATURES].into_boxed_slice(),
        }
    }
}

impl Default for Spp {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Spp {
    fn name(&self) -> &'static str {
        "SPP"
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates {
        let page = ctx.line.raw() >> 6;
        let offset = (ctx.line.raw() & 0x3F) as u8;
        let fresh = PageEntry {
            signature: 0,
            last_offset: offset,
        };

        let full = self.pages.len() >= PAGE_CAP;
        let (signature, trained) = match self.pages.entry(page) {
            Entry::Occupied(o) => {
                let e = o.into_mut();
                let delta = offset as i8 - e.last_offset as i8;
                if delta == 0 {
                    (e.signature, false)
                } else {
                    let old_sig = e.signature;
                    self.patterns[old_sig as usize].train(delta);
                    e.signature = update_signature(old_sig, delta);
                    e.last_offset = offset;
                    (e.signature, true)
                }
            }
            Entry::Vacant(v) if !full => {
                v.insert(fresh);
                (0, false)
            }
            Entry::Vacant(_) => {
                // A new page with the table full starts a new generation.
                self.pages.clear();
                self.pages.insert(page, fresh);
                (0, false)
            }
        };
        let mut out = Candidates::new();
        if !trained && signature == 0 {
            return out;
        }

        // Lookahead down the predicted path, one candidate per step.
        let mut sig = signature;
        let mut conf = 1.0f64;
        let mut off = offset as i64;
        for _ in 0..MAX_DEGREE {
            let Some((delta, c)) = self.patterns[sig as usize].best() else {
                break;
            };
            conf *= c;
            if conf < CONF_THRESHOLD {
                break;
            }
            off += delta as i64;
            if !(0..64).contains(&off) {
                break; // page boundary: SPP does not cross it
            }
            let candidate = LineAddr::new((page << 6) | off as u64);
            if let Some(line) = same_page(ctx.line, candidate) {
                out.push(PrefetchRequest::Phys(line));
            }
            sig = update_signature(sig, delta);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::VirtAddr;

    fn ctx(line: u64) -> PrefetchContext {
        PrefetchContext {
            ip: 3,
            line: LineAddr::new(line),
            vaddr: VirtAddr::new(line << 6),
            hit: false,
        }
    }

    #[test]
    fn sequential_pattern_is_learned() {
        let mut p = Spp::new();
        // Train on page 0 with +1 deltas.
        let mut reqs = Candidates::new();
        for i in 0..20 {
            reqs = p.on_access(&ctx(i));
        }
        assert!(!reqs.is_empty(), "sequential page walk must prefetch");
        assert!(matches!(reqs[0], PrefetchRequest::Phys(l) if l.raw() == 20));
    }

    #[test]
    fn never_crosses_page_boundary() {
        let mut p = Spp::new();
        // Strong +1 pattern, then approach the page end.
        for i in 0..60 {
            p.on_access(&ctx(i));
        }
        let reqs = p.on_access(&ctx(63));
        for r in reqs {
            if let PrefetchRequest::Phys(l) = r {
                assert!(l.raw() < 64, "crossed page: {l}");
            }
        }
    }

    #[test]
    fn cross_page_training_helps_fresh_page() {
        let mut p = Spp::new();
        for i in 0..30 {
            p.on_access(&ctx(i)); // pattern learned on page 0
        }
        // Second access on a fresh page (first establishes the entry,
        // second trains a delta and predicts).
        p.on_access(&ctx(64 * 5 + 1));
        let reqs = p.on_access(&ctx(64 * 5 + 2));
        assert!(!reqs.is_empty(), "signature learned on page 0 transfers");
    }

    #[test]
    fn irregular_stream_stays_quiet() {
        let mut p = Spp::new();
        let mut x = 99u64;
        let mut total = 0;
        for _ in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            total += p.on_access(&ctx(x % (1 << 30))).len();
        }
        assert!(total < 40, "random stream should rarely prefetch ({total})");
    }
}
