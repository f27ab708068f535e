//! Next-line prefetcher: on every demand access, prefetch the following
//! `degree` lines within the same page.

use atc_types::LineAddr;

use crate::{same_page, Candidates, PrefetchContext, PrefetchRequest, Prefetcher, MAX_DEGREE};

/// The classic next-line prefetcher (page-bounded).
#[derive(Debug)]
pub struct NextLine {
    degree: usize,
}

impl NextLine {
    /// Prefetch `degree` sequential lines per trigger.
    ///
    /// # Panics
    ///
    /// Panics if `degree == 0` or `degree > MAX_DEGREE`.
    pub fn new(degree: usize) -> Self {
        assert!(degree > 0);
        assert!(degree <= MAX_DEGREE);
        NextLine { degree }
    }
}

impl Prefetcher for NextLine {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn on_access(&mut self, ctx: &PrefetchContext) -> Candidates {
        (1..=self.degree as u64)
            .filter_map(|d| same_page(ctx.line, LineAddr::new(ctx.line.raw() + d)))
            .map(PrefetchRequest::Phys)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atc_types::VirtAddr;

    fn ctx(line: u64) -> PrefetchContext {
        PrefetchContext {
            ip: 1,
            line: LineAddr::new(line),
            vaddr: VirtAddr::new(line << 6),
            hit: false,
        }
    }

    #[test]
    fn emits_following_lines() {
        let mut p = NextLine::new(2);
        let reqs = p.on_access(&ctx(10));
        assert_eq!(
            reqs,
            [
                PrefetchRequest::Phys(LineAddr::new(11)),
                PrefetchRequest::Phys(LineAddr::new(12))
            ]
        );
    }

    #[test]
    #[should_panic]
    fn degree_beyond_max_degree_panics() {
        NextLine::new(MAX_DEGREE + 1);
    }

    #[test]
    fn stops_at_page_boundary() {
        let mut p = NextLine::new(4);
        // Line 63 is the last line of page 0.
        let reqs = p.on_access(&ctx(63));
        assert!(reqs.is_empty());
        let reqs = p.on_access(&ctx(62));
        assert_eq!(reqs, [PrefetchRequest::Phys(LineAddr::new(63))]);
    }
}
