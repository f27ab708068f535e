#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Hardware data prefetchers used as the paper's comparison points
//! (Fig 8 / Fig 15): IPCP, SPP, Bingo, ISB, plus a next-line strawman.
//!
//! The modelling captures the property the paper's argument rests on
//! (§III): the *spatial* prefetchers (SPP, Bingo, next-line) sit at the
//! L2C, train on physical addresses and **never prefetch across a page
//! boundary**, so they cannot cover replay loads, whose trigger is the
//! first touch of a freshly translated page. IPCP sits at the L1D and
//! *can* cross pages because it predicts virtual addresses — but its
//! cross-page prefetches must first translate, and an STLB miss delays
//! them (modelled by the simulator), making them late. ISB is a
//! *temporal* prefetcher that replays recorded physical miss sequences
//! and can therefore cross pages.
//!
//! All prefetchers implement [`Prefetcher`] and are purely reactive: the
//! simulator feeds every demand access via
//! [`on_access`](Prefetcher::on_access) and issues the returned
//! candidates through the cache hierarchy.
//!
//! # Hot-path shape
//!
//! `on_access` runs on every demand access that reaches the prefetcher's
//! level, so the layer allocates nothing per call:
//!
//! * candidates come back as [`Candidates`], an inline list of at most
//!   [`MAX_DEGREE`] requests — the most the simulator issues per access.
//!   A prefetcher whose prediction is wider (a Bingo footprint) keeps
//!   its first `MAX_DEGREE` candidates in its own emission order;
//! * the models' tables are [`FastMap`](atc_types::FastMap)s on an
//!   in-tree Fx-style hasher rather than SipHash, and SPP's pattern
//!   table is a flat array indexed by its 12-bit signature.
//!
//! The hasher cannot change what a prefetcher predicts: lookups and
//! inserts do not depend on it, and the one hasher-dependent operation,
//! iteration order, was already randomised per map under `std`'s
//! `RandomState`. The one model that iterates a map, Bingo's LRU
//! eviction, takes the minimum of a unique clock, which no order can
//! change.

pub mod bingo;
pub mod ipcp;
pub mod isb;
pub mod next_line;
pub mod spp;

pub use bingo::Bingo;
pub use ipcp::Ipcp;
pub use isb::Isb;
pub use next_line::NextLine;
pub use spp::Spp;

use atc_types::{LineAddr, VirtAddr};

/// A demand access observed by a prefetcher.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchContext {
    /// Instruction pointer of the demand load.
    pub ip: u64,
    /// Physical line touched.
    pub line: LineAddr,
    /// Virtual address of the load (L1D prefetchers predict in virtual
    /// space).
    pub vaddr: VirtAddr,
    /// Whether the access hit at this level.
    pub hit: bool,
}

/// A prefetch candidate emitted by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchRequest {
    /// Prefetch a physical line (no translation needed).
    Phys(LineAddr),
    /// Prefetch a virtual address: the simulator must translate it first
    /// and charges STLB-miss delays (IPCP's cross-page behaviour).
    Virt(VirtAddr),
}

/// Most prefetch candidates one [`Prefetcher::on_access`] call returns,
/// and so the most the simulator issues per demand access.
pub const MAX_DEGREE: usize = 4;

/// The prefetch candidates of one access: an inline list of at most
/// [`MAX_DEGREE`] requests, in emission order.
///
/// It dereferences to a slice, iterates by value, collects from an
/// iterator and compares equal to an array holding the same requests, so
/// it reads like the `Vec` it replaces without a heap allocation per
/// call.
///
/// ```
/// use atc_prefetch::{Candidates, PrefetchRequest, MAX_DEGREE};
/// use atc_types::LineAddr;
///
/// let c: Candidates = (0..10).map(|l| PrefetchRequest::Phys(LineAddr::new(l))).collect();
/// assert_eq!(c.len(), MAX_DEGREE); // collect keeps the first MAX_DEGREE
/// assert_eq!(c[0], PrefetchRequest::Phys(LineAddr::new(0)));
/// ```
#[derive(Clone, Copy)]
pub struct Candidates {
    reqs: [PrefetchRequest; MAX_DEGREE],
    len: u8,
}

impl Candidates {
    /// An empty list.
    pub const fn new() -> Self {
        Candidates {
            reqs: [PrefetchRequest::Phys(LineAddr::new(0)); MAX_DEGREE],
            len: 0,
        }
    }

    /// True once the list holds [`MAX_DEGREE`] requests.
    pub fn is_full(&self) -> bool {
        self.len as usize == MAX_DEGREE
    }

    /// Append `req`.
    ///
    /// # Panics
    ///
    /// Panics if the list [`is_full`](Self::is_full): a prefetcher must
    /// bound its own degree by [`MAX_DEGREE`].
    pub fn push(&mut self, req: PrefetchRequest) {
        assert!(!self.is_full(), "more than MAX_DEGREE prefetch candidates");
        self.reqs[self.len as usize] = req;
        self.len += 1;
    }
}

impl Default for Candidates {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Candidates {
    type Target = [PrefetchRequest];

    fn deref(&self) -> &[PrefetchRequest] {
        &self.reqs[..self.len as usize]
    }
}

impl std::fmt::Debug for Candidates {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Keeps the first [`MAX_DEGREE`] items and stops pulling after them.
impl FromIterator<PrefetchRequest> for Candidates {
    fn from_iter<I: IntoIterator<Item = PrefetchRequest>>(iter: I) -> Self {
        let mut out = Candidates::new();
        for req in iter.into_iter().take(MAX_DEGREE) {
            out.push(req);
        }
        out
    }
}

impl IntoIterator for Candidates {
    type Item = PrefetchRequest;
    type IntoIter = std::iter::Take<std::array::IntoIter<PrefetchRequest, MAX_DEGREE>>;

    fn into_iter(self) -> Self::IntoIter {
        self.reqs.into_iter().take(self.len as usize)
    }
}

impl PartialEq for Candidates {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[PrefetchRequest; N]> for Candidates {
    fn eq(&self, other: &[PrefetchRequest; N]) -> bool {
        **self == *other
    }
}

/// A hardware prefetcher observing one cache level's demand stream.
pub trait Prefetcher: std::fmt::Debug + Send {
    /// Prefetcher name for reports.
    fn name(&self) -> &'static str;

    /// Observe a demand access; return its prefetch candidates (possibly
    /// none), at most [`MAX_DEGREE`] of them, inline — the call
    /// allocates nothing.
    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates;
}

/// Which prefetcher to attach, and where it lives in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetcherKind {
    /// No data prefetching (the paper's main baseline).
    #[default]
    None,
    /// Next-line at L2C.
    NextLine,
    /// IPCP at L1D (virtual, cross-page).
    Ipcp,
    /// SPP at L2C (physical, page-bounded).
    Spp,
    /// Bingo at L2C (physical, page-bounded).
    Bingo,
    /// ISB at L2C (temporal, physical).
    Isb,
}

impl PrefetcherKind {
    /// Instantiate the prefetcher, or `None` for the no-prefetch
    /// baseline.
    pub fn build(self) -> Option<Box<dyn Prefetcher>> {
        match self {
            PrefetcherKind::None => None,
            PrefetcherKind::NextLine => Some(Box::new(NextLine::new(2))),
            PrefetcherKind::Ipcp => Some(Box::new(Ipcp::new())),
            PrefetcherKind::Spp => Some(Box::new(Spp::new())),
            PrefetcherKind::Bingo => Some(Box::new(Bingo::new())),
            PrefetcherKind::Isb => Some(Box::new(Isb::new())),
        }
    }

    /// True if this prefetcher observes the L1D stream (IPCP); others
    /// observe the L2C stream.
    pub fn at_l1d(self) -> bool {
        matches!(self, PrefetcherKind::Ipcp)
    }

    /// Label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Ipcp => "IPCP",
            PrefetcherKind::Spp => "SPP",
            PrefetcherKind::Bingo => "Bingo",
            PrefetcherKind::Isb => "ISB",
        }
    }

    /// Every kind, for experiment sweeps.
    pub const ALL: [PrefetcherKind; 6] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Ipcp,
        PrefetcherKind::Spp,
        PrefetcherKind::Bingo,
        PrefetcherKind::Isb,
    ];
}

/// Clamp a physical prefetch candidate to the trigger's page: returns
/// `None` if `candidate` falls outside the 4 KiB page containing
/// `trigger` (the spatial-prefetcher page-boundary rule).
pub fn same_page(trigger: LineAddr, candidate: LineAddr) -> Option<LineAddr> {
    // 64 lines per 4 KiB page.
    if trigger.raw() >> 6 == candidate.raw() >> 6 {
        Some(candidate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_filters_cross_page() {
        let t = LineAddr::new(64); // page 1
        assert_eq!(same_page(t, LineAddr::new(127)), Some(LineAddr::new(127)));
        assert_eq!(same_page(t, LineAddr::new(128)), None);
        assert_eq!(same_page(t, LineAddr::new(63)), None);
    }

    #[test]
    fn kinds_build() {
        assert!(PrefetcherKind::None.build().is_none());
        for k in PrefetcherKind::ALL.into_iter().skip(1) {
            let p = k.build().expect("builds");
            assert!(!p.name().is_empty());
        }
    }

    fn phys(l: u64) -> PrefetchRequest {
        PrefetchRequest::Phys(LineAddr::new(l))
    }

    #[test]
    fn candidates_read_like_a_vec() {
        let mut c = Candidates::new();
        assert!(c.is_empty());
        c.push(phys(3));
        c.push(PrefetchRequest::Virt(VirtAddr::new(64)));
        assert_eq!(c.len(), 2);
        assert_eq!(c, [phys(3), PrefetchRequest::Virt(VirtAddr::new(64))]);
        assert_eq!(c.into_iter().collect::<Vec<_>>(), c.to_vec());
        assert_eq!(format!("{c:?}"), format!("{:?}", c.to_vec()));
        assert_ne!(c, Candidates::new());
    }

    #[test]
    fn collect_keeps_the_first_max_degree() {
        let mut pulled = 0;
        let c: Candidates = (0..10).inspect(|_| pulled += 1).map(phys).collect();
        assert!(c.is_full());
        assert_eq!(c, [phys(0), phys(1), phys(2), phys(3)]);
        assert_eq!(pulled, MAX_DEGREE, "stops pulling once full");
    }

    #[test]
    #[should_panic(expected = "MAX_DEGREE")]
    fn push_beyond_max_degree_panics() {
        let mut c: Candidates = (0..MAX_DEGREE as u64).map(phys).collect();
        c.push(phys(99));
    }

    #[test]
    fn only_ipcp_is_l1d() {
        for k in PrefetcherKind::ALL {
            assert_eq!(k.at_l1d(), k == PrefetcherKind::Ipcp);
        }
    }
}
