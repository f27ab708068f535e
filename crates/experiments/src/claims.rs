//! The paper's qualitative claims as data, checked by `suite --check`.
//!
//! [`CLAIMS`] holds one line per claim:
//!
//! ```text
//! sweep/slug class [Dn] | predicate | description
//! ```
//!
//! * `class` is the smallest budget [`Class`] at which the expected
//!   outcome is true at seed 42 (and stays true at every larger class).
//! * `Dn` marks an expected divergence (EXPERIMENTS.md's D-notes): the
//!   predicate states the paper's outcome, and the claim fails if it
//!   ever holds here.
//! * The predicate compares numbers read from the claim's sweep, as
//!   [`sweep_values`] computes them for the printed table:
//!
//!   | operand | value |
//!   |---|---|
//!   | `[col]` | the column's footer (geomean or mean) |
//!   | `[row:col]` | one cell; rows are benchmarks or mix labels |
//!   | `max[col]`, `min[col]` | the maximum / minimum over the rows |
//!   | `count[col]` | the rows that have a value |
//!   | `gains[col]` | the rows whose value exceeds 1 |
//!   | `mean{config.metric}` | the metric's mean over the benchmarks |
//!   | `geomean{config.metric}` | … and its geometric mean |
//!   | `max(a, b, …)`, `min(…)`, `abs(a)` | of other operands |
//!
//!   with numbers, `+ - * /`, parentheses, one of `< <= > >=`, and `&`
//!   joining comparisons that must all hold.
//!
//! [`evaluate`] checks a claim only when the run reaches the claim's
//! class, covers all nine benchmarks, and selected the claim's sweep and
//! every config the claim reads; otherwise the claim is *not evaluated*.
//! A job the claim depends on that has no `ok` record fails it.

use std::collections::{BTreeMap, BTreeSet};

use atc_harness::Metrics;
use atc_stats::geomean;
use atc_workloads::{BenchmarkId, Scale};

use crate::sweeps::{
    column_configs, mc_key, single_key, smt_key, sweep_values, Budget, ColValue, SweepDef,
    SweepKind, SweepValues,
};

/// Every claim, in paper order (format in the [module docs](self)).
/// Thresholds are the paper-shape bounds the figures have always been
/// checked against; the recall, service-level and stall claims are
/// stated over per-benchmark means of the recorded metrics.
pub const CLAIMS: &str = "\
fig01/replay-over-walk smoke | [replay-avg] > [walk-avg] | avg replay stall > avg walk stall
fig01/replay-over-nonreplay smoke | [replay-avg] > [nonreplay-avg] | avg replay stall > avg non-replay stall
fig01/replay-dram-scale smoke | max[replay-avg] >= 100 | worst-benchmark avg replay stall reaches DRAM scale
fig01/walk-below-replay smoke | max[walk-avg] < max[replay-avg] | worst avg walk stall < worst avg replay stall
fig02/oracles-not-slower smoke | min([LLC(T)], [LLC(R)], [LLC(TR)], [L2C(T)+LLC(TR)], [L2C+LLC(TR)]) > 0.995 | all oracles ≥ baseline (within noise)
fig02/tr-over-r smoke | [LLC(TR)] >= [LLC(R)] - 0.005 | LLC(TR) ≥ LLC(R)
fig02/replay-over-translation full | [LLC(R)] > [LLC(T)] | replay oracle > translation oracle (paper: 30.2% vs 4.7%)
fig02/ideal-l2c-helps smoke | [L2C+LLC(TR)] >= [LLC(TR)] | adding ideal L2C helps
fig02/full-oracle-headroom smoke | [L2C+LLC(TR)] > 1.05 | full oracle shows real headroom
fig02/l2t-over-tr smoke | [L2C(T)+LLC(TR)] >= [LLC(TR)] - 0.005 | L2C(T) on top of LLC(TR) ≥ LLC(TR)
fig03/translations-onchip smoke | [T-onchip] > 0.5 | most leaf translations serviced on-chip
fig03/replays-dram-bound smoke | [R-DRAM] > 0.6 | replay loads overwhelmingly DRAM-bound
fig03/l1d-l2c-over-dram smoke | mean{base.stlb_mpki} - mean{base.l2c_mpki_ptl1} > mean{base.llc_mpki_ptl1} | L1D+L2C service more translations than DRAM (walks - L2C PTL1 misses vs LLC PTL1 misses)
fig04/ship-below-lru full | [SHiP] < [LRU] | SHiP < LRU on translation MPKI
fig04/no-policy-halves-lru smoke | min([LRU], [SRRIP], [DRRIP], [SHiP], [Hawkeye]) > [LRU] * 0.5 | no baseline policy halves LRU's translation MPKI
fig04/signature-policies-miss smoke | [Hawkeye] > 0 & [SHiP] > 0 | signature policies leave translation misses on the table
fig04/srrip-near-lru smoke | [SRRIP] <= [LRU] * 1.15 | SRRIP roughly ≤ LRU
fig04/drrip-near-lru smoke | [DRRIP] <= [LRU] * 1.15 | DRRIP roughly ≤ LRU
fig04/hawkeye-above-lru smoke D1 | [Hawkeye] > [LRU] | Hawkeye's translation MPKI exceeds LRU's (paper +44%)
fig05/llc-short-recalls full | [LLC<50] > 0.15 | LLC: sizeable short-recall translation fraction (paper ~30%)
fig05/l2c-short-recalls golden | [L2C<50] > 0.15 | L2C: sizeable short-recall translation fraction
fig05/probes-observed-evictions golden | count[LLC<50] > 0 & count[L2C<50] > 0 | probes observed evictions
fig06/policy-insensitive smoke | max([LRU], [SRRIP], [DRRIP], [SHiP], [Hawkeye]) / min([LRU], [SRRIP], [DRRIP], [SHiP], [Hawkeye]) < 1.10 | replay MPKI insensitive to policy
fig06/replays-dead full | [dead%] > 0.80 | most evicted replay blocks are dead (paper >95%)
fig07/replays-beyond-50 full | [LLC>50] > 0.5 | LLC: majority of replay recalls beyond 50 (paper >60%)
fig07/translations-recall-shorter full | mean{recall-t.llc_recall_le50} > mean{recall-r.llc_recall_le50} | translations recall shorter than replays
fig08/spp-flat smoke | abs([SPP] - [none]) / [none] < 0.05 | SPP barely moves replay MPKI
fig08/bingo-flat smoke | abs([Bingo] - [none]) / [none] < 0.05 | Bingo barely moves replay MPKI
fig08/ipcp-no-gain smoke | ([IPCP] - [none]) / [none] < 0.05 | IPCP does not meaningfully reduce replay MPKI
fig08/isb-beats-spatial full | [ISB] < min([SPP], [Bingo]) | temporal ISB beats spatial prefetchers on replays
fig08/isb-reduces full | [ISB] < [none] | ISB visibly reduces replay MPKI
fig10/dead-insertion-wins golden | [T-policies] > [replay@0] | inserting replays dead beats inserting them precious
fig12/newsign-no-harm smoke | [NewSign] <= [SHiP] * 1.02 | NewSign does not hurt translation MPKI
fig12/tship-reduces full | [T-SHiP] < [SHiP] | T-SHiP reduces translation MPKI
fig12/pinning-helps smoke | [T-SHiP] <= [NewSign] | pinning translations helps beyond signatures
fig12/thawkeye-repairs full | [T-Hawkeye] < [Hawkeye] | T-Hawkeye repairs Hawkeye's translation MPKI
fig14/ladder-gains smoke | [+TEMPO] > 1.0 | full ladder geomean speedup > 1.0
fig14/tempo-over-tdrrip smoke | [+TEMPO] >= [T-DRRIP] - 0.01 | +TEMPO ≥ T-DRRIP alone
fig14/atp-adds smoke | [+ATP] > [+T-SHiP] | ATP adds on top of T-SHiP
fig14/best-gains-2pct smoke | max[+TEMPO] > 1.02 | best benchmark gains ≥ 2%
fig14/no-degrade-xalancbmk smoke | [xalancbmk:+TEMPO] > 0.97 | xalancbmk: full ladder does not degrade
fig14/no-degrade-tc smoke | [tc:+TEMPO] > 0.97 | tc: full ladder does not degrade
fig14/no-degrade-canneal smoke | [canneal:+TEMPO] > 0.97 | canneal: full ladder does not degrade
fig14/no-degrade-mis smoke | [mis:+TEMPO] > 0.97 | mis: full ladder does not degrade
fig14/no-degrade-mcf full D5 | [mcf:+TEMPO] > 0.97 | mcf: full ladder does not degrade
fig14/no-degrade-bf smoke | [bf:+TEMPO] > 0.97 | bf: full ladder does not degrade
fig14/no-degrade-radii smoke | [radii:+TEMPO] > 0.97 | radii: full ladder does not degrade
fig14/no-degrade-cc smoke | [cc:+TEMPO] > 0.97 | cc: full ladder does not degrade
fig14/no-degrade-pr smoke | [pr:+TEMPO] > 0.97 | pr: full ladder does not degrade
fig14/tempo-increment-small smoke D2 | [+TEMPO] - [+ATP] <= 0.003 | TEMPO adds at most the paper's +0.3% over +ATP
fig15/gains-no-pf smoke | [no-pf] > 1.0 | enhancements still help without a prefetcher
fig15/gains-ipcp golden | [IPCP] > 1.0 | enhancements still help under IPCP
fig15/gains-spp smoke | [SPP] > 1.0 | enhancements still help under SPP
fig15/gains-bingo smoke | [Bingo] > 1.0 | enhancements still help under Bingo
fig15/gains-isb smoke | [ISB] > 1.0 | enhancements still help under ISB
fig16/walk-stalls-reduced smoke | mean{tempo.walk_stall_mean} < mean{base.walk_stall_mean} | walk stalls reduced (paper 28.8%; cycles per stalling walk)
fig16/replay-stalls-reduced smoke | mean{tempo.replay_stall_mean} < mean{base.replay_stall_mean} | replay stalls reduced (paper 18.5%; cycles per stalling replay)
fig16/combined-reduced smoke | mean{tempo.trans_stall} < mean{base.trans_stall} * 0.95 | combined translation-related stalls clearly reduced (paper 46.7%)
fig17/all-mixes-completed smoke | count[hspeedup] >= 8 | all SMT mixes completed
fig17/geomean-gains smoke | [hspeedup] > 1.0 | SMT geomean harmonic speedup > 1
fig17/high-high-over-low-low golden | max([radii-bf:hspeedup], [pr-cc:hspeedup], [cc-radii:hspeedup]) > [xalancbmk-xalancbmk:hspeedup] | a High-High mix gains more than Low-Low
fig17/most-mixes-gain smoke | gains[hspeedup] >= 6 | most mixes gain
fig18/dead-stlb-entries full | [STLB>50] > 0.3 | large dead-entry fraction at the STLB (paper >40%)
fig18/stlb-evictions-observed golden | count[STLB>50] > 0 | STLB evictions observed
fig19/gains-512 smoke | [512] > 1.0 | gains persist at 512-entry STLB
fig19/gains-1024 smoke | [1024] > 1.0 | gains persist at 1024-entry STLB
fig19/gains-2048 smoke | [2048] > 1.0 | gains persist at 2048-entry STLB
fig19/gains-4096 smoke | [4096] > 1.0 | gains persist at 4096-entry STLB
fig19/small-stlb-gains-more smoke | [512] >= [4096] - 0.005 | small STLB gains ≥ large STLB gains
fig20/gains-256kb smoke | [256KB] > 1.0 | gains persist at 256 KiB L2C
fig20/gains-512kb smoke | [512KB] > 1.0 | gains persist at 512 KiB L2C
fig20/gains-768kb smoke | [768KB] > 1.0 | gains persist at 768 KiB L2C
fig20/gains-1mb smoke | [1MB] > 1.0 | gains persist at 1024 KiB L2C
fig20/no-growth smoke | [1MB] <= [256KB] + 0.02 | gains do not grow with L2C size
fig21/gains-1mb smoke | [1MB] > 1.0 | gains persist at 1 MiB LLC
fig21/gains-2mb smoke | [2MB] > 1.0 | gains persist at 2 MiB LLC
fig21/gains-4mb smoke | [4MB] > 1.0 | gains persist at 4 MiB LLC
fig21/gains-8mb smoke | [8MB] > 1.0 | gains persist at 8 MiB LLC
fig21/small-llc-gains-more smoke | [1MB] >= [8MB] - 0.005 | 1 MiB gains ≥ 8 MiB gains
table2/band-xalancbmk smoke | [xalancbmk:STLB] < 12 | xalancbmk: STLB MPKI in its Table II band (Low)
table2/band-tc smoke | [tc:STLB] > 3 & [tc:STLB] < 40 | tc: STLB MPKI in its Table II band (Medium)
table2/band-canneal smoke | [canneal:STLB] > 3 & [canneal:STLB] < 40 | canneal: STLB MPKI in its Table II band (Medium)
table2/band-mis golden | [mis:STLB] > 3 & [mis:STLB] < 40 | mis: STLB MPKI in its Table II band (Medium)
table2/band-mcf smoke | [mcf:STLB] > 3 & [mcf:STLB] < 40 | mcf: STLB MPKI in its Table II band (Medium)
table2/band-bf golden | [bf:STLB] > 15 | bf: STLB MPKI in its Table II band (High)
table2/band-radii golden | [radii:STLB] > 15 | radii: STLB MPKI in its Table II band (High)
table2/band-cc golden | [cc:STLB] > 15 | cc: STLB MPKI in its Table II band (High)
table2/band-pr golden | [pr:STLB] > 15 | pr: STLB MPKI in its Table II band (High)
table2/stlb-misses-xalancbmk smoke | [xalancbmk:STLB] > 0.05 | xalancbmk: workload produces STLB misses
table2/stlb-misses-tc smoke | [tc:STLB] > 0.05 | tc: workload produces STLB misses
table2/stlb-misses-canneal smoke | [canneal:STLB] > 0.05 | canneal: workload produces STLB misses
table2/stlb-misses-mis smoke | [mis:STLB] > 0.05 | mis: workload produces STLB misses
table2/stlb-misses-mcf smoke | [mcf:STLB] > 0.05 | mcf: workload produces STLB misses
table2/stlb-misses-bf smoke | [bf:STLB] > 0.05 | bf: workload produces STLB misses
table2/stlb-misses-radii smoke | [radii:STLB] > 0.05 | radii: workload produces STLB misses
table2/stlb-misses-cc smoke | [cc:STLB] > 0.05 | cc: workload produces STLB misses
table2/stlb-misses-pr smoke | [pr:STLB] > 0.05 | pr: workload produces STLB misses
table2/replay-tracks-stlb-xalancbmk smoke | [xalancbmk:LLC-replay] <= [xalancbmk:STLB] * 1.3 + 2 | xalancbmk: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-tc smoke | [tc:LLC-replay] <= [tc:STLB] * 1.3 + 2 | tc: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-canneal smoke | [canneal:LLC-replay] <= [canneal:STLB] * 1.3 + 2 | canneal: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-mis smoke | [mis:LLC-replay] <= [mis:STLB] * 1.3 + 2 | mis: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-mcf smoke | [mcf:LLC-replay] <= [mcf:STLB] * 1.3 + 2 | mcf: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-bf smoke | [bf:LLC-replay] <= [bf:STLB] * 1.3 + 2 | bf: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-radii smoke | [radii:LLC-replay] <= [radii:STLB] * 1.3 + 2 | radii: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-cc smoke | [cc:LLC-replay] <= [cc:STLB] * 1.3 + 2 | cc: LLC replay MPKI ≲ STLB MPKI
table2/replay-tracks-stlb-pr smoke | [pr:LLC-replay] <= [pr:STLB] * 1.3 + 2 | pr: LLC replay MPKI ≲ STLB MPKI
table2/pr-highest golden | [pr:STLB] >= max[STLB] | pr has the highest STLB MPKI
table2/xalancbmk-lowest golden | [xalancbmk:STLB] <= min[STLB] | xalancbmk has the lowest STLB MPKI
table2/paper-stlb-order smoke D4 | [xalancbmk:STLB] < [tc:STLB] & [tc:STLB] < [canneal:STLB] & [canneal:STLB] < [mis:STLB] & [mis:STLB] < [mcf:STLB] & [mcf:STLB] < [bf:STLB] & [bf:STLB] < [radii:STLB] & [radii:STLB] < [cc:STLB] & [cc:STLB] < [pr:STLB] | STLB MPKI follows the paper's full Table II order
multicore/geomean-gains smoke | [hspeedup] > 1.0 | multi-core geomean speedup > 1
multicore/majority-gain smoke | gains[hspeedup] * 2 > count[hspeedup] | majority of mixes gain
dppred/beats-dppred smoke | [full-stack] > [DpPred] | enhancements beat CbPred+DpPred on geomean (paper +3.1%)
dppred/competitive smoke | [DpPred] > 0.95 | CbPred+DpPred is a competitive comparison point
ablation/both-t-over-each full D5 | [both-T] >= [T-DRRIP] - 0.005 & [both-T] >= [T-SHiP-only] - 0.005 | both T-policies ≥ each alone
ablation/tship-over-halves smoke | [T-SHiP-only] >= [NewSign] - 0.005 & [T-SHiP-only] >= [pin-only] - 0.005 | full T-SHiP ≥ its halves
ablation/atp-needs-tpolicies full | [ATP@T] > [ATP@base] | ATP gains more on top of T-policies (they feed it on-chip PTE hits)
ablation/atp-volume full | mean{atp.atp_issued} > mean{atp-base.atp_issued} | T-policies raise ATP trigger volume
ablation/mlp-inflates-ipc smoke | geomean{nodeps.ipc} > geomean{base.ipc} | unbounded MLP inflates IPC
";

/// Budget classes, smallest first: the smoke and golden runs of `ci.sh`
/// and the default experiment budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `--scale test --warmup 2000 --instructions 20000`.
    Smoke,
    /// `--scale small --warmup 10000 --instructions 50000`.
    Golden,
    /// `--scale small --warmup 200000 --instructions 2000000`.
    Full,
}

impl Class {
    /// The class's `(scale, warmup, measure)`.
    pub fn budget(self) -> (Scale, u64, u64) {
        match self {
            Class::Smoke => (Scale::Test, 2_000, 20_000),
            Class::Golden => (Scale::Small, 10_000, 50_000),
            Class::Full => (Scale::Small, 200_000, 2_000_000),
        }
    }

    /// Whether a run at `budget` reaches this class: its scale, warmup
    /// and measure each reach the class's.
    pub fn reached_by(self, budget: &Budget) -> bool {
        let rank = |s| {
            [Scale::Test, Scale::Small, Scale::Paper]
                .iter()
                .position(|&x| x == s)
        };
        let (scale, warmup, measure) = self.budget();
        rank(budget.scale) >= rank(scale) && budget.warmup >= warmup && budget.measure >= measure
    }
}

/// The outcome a claim expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The paper's outcome holds.
    Holds,
    /// The paper's outcome does not reproduce; the tag names the
    /// divergence in EXPERIMENTS.md.
    Diverges(&'static str),
}

/// An operand of a predicate (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A number.
    Const(f64),
    /// `[col]`
    Footer(&'static str),
    /// `[row:col]`
    Cell(&'static str, &'static str),
    /// `max[col]`
    ColMax(&'static str),
    /// `min[col]`
    ColMin(&'static str),
    /// `count[col]`
    Count(&'static str),
    /// `gains[col]`
    Gains(&'static str),
    /// `mean{config.metric}`
    Mean(&'static str, &'static str),
    /// `geomean{config.metric}`
    Geomean(&'static str, &'static str),
    /// `max(…)`
    Max(Vec<Expr>),
    /// `min(…)`
    Min(Vec<Expr>),
    /// `abs(…)`
    Abs(Box<Expr>),
    /// `a + b`, `a - b`, `a * b` or `a / b`.
    Arith(Box<Expr>, char, Box<Expr>),
}

/// One comparison: `a < b`, `a <= b`, `a > b` or `a >= b`.
pub type Cmp = (Expr, &'static str, Expr);

/// One of the paper's claims, parsed from a line of [`CLAIMS`].
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// Unique name, `sweep/slug`.
    pub name: &'static str,
    /// The sweep whose values the claim reads.
    pub sweep: &'static str,
    /// What the claim says.
    pub text: &'static str,
    /// The paper's outcome: comparisons that must all hold.
    pub pred: Vec<Cmp>,
    /// Whether the paper's outcome is expected to hold or diverge.
    pub expect: Expect,
    /// The smallest class at which the expectation is true.
    pub class: Class,
}

/// Every claim of [`CLAIMS`], in order.
///
/// # Panics
///
/// On a malformed line, naming it (the table is static, and
/// `tests/paper_claims.rs` parses every line).
pub fn claims() -> Vec<Claim> {
    CLAIMS
        .lines()
        .map(|line| parse_claim(line).unwrap_or_else(|e| panic!("claim {line:?}: {e}")))
        .collect()
}

fn parse_claim(line: &'static str) -> Result<Claim, String> {
    let mut fields = line.splitn(3, " | ");
    let (Some(head), Some(pred), Some(text)) = (fields.next(), fields.next(), fields.next()) else {
        return Err("want `name class [Dn] | predicate | text`".into());
    };
    let mut head = head.split_whitespace();
    let name = head.next().unwrap_or_default();
    let class = match head.next() {
        Some("smoke") => Class::Smoke,
        Some("golden") => Class::Golden,
        Some("full") => Class::Full,
        other => return Err(format!("unknown class {other:?}")),
    };
    let mut p = Parser { s: pred, at: 0 };
    let mut all = vec![p.cmp()?];
    while p.eat("&") {
        all.push(p.cmp()?);
    }
    if !p.rest().trim().is_empty() {
        return Err(format!("unparsed {:?}", p.rest()));
    }
    Ok(Claim {
        name,
        sweep: name.split('/').next().unwrap_or_default(),
        text,
        pred: all,
        expect: head.next().map_or(Expect::Holds, Expect::Diverges),
        class,
    })
}

/// A recursive-descent parser over one predicate.
struct Parser {
    s: &'static str,
    at: usize,
}

impl Parser {
    fn rest(&self) -> &'static str {
        &self.s[self.at..]
    }

    /// Skip blanks, then consume `tok` if it comes next.
    fn eat(&mut self, tok: &str) -> bool {
        self.at = self.s.len() - self.rest().trim_start().len();
        let hit = self.rest().starts_with(tok);
        if hit {
            self.at += tok.len();
        }
        hit
    }

    /// Everything up to the next `close`, which is consumed.
    fn until(&mut self, close: char) -> Result<&'static str, String> {
        let rest = self.rest();
        let end = rest
            .find(close)
            .ok_or_else(|| format!("missing {close:?}"))?;
        self.at += end + 1;
        Ok(&rest[..end])
    }

    fn cmp(&mut self) -> Result<Cmp, String> {
        let a = self.sum()?;
        let op = ["<=", ">=", "<", ">"]
            .into_iter()
            .find(|op| self.eat(op))
            .ok_or_else(|| format!("want a comparison at {:?}", self.rest()))?;
        Ok((a, op, self.sum()?))
    }

    /// Operands joined by the operators in `ops`, left to right.
    fn chain(
        &mut self,
        ops: &str,
        operand: fn(&mut Self) -> Result<Expr, String>,
    ) -> Result<Expr, String> {
        let mut e = operand(self)?;
        while let Some(op) = ops.chars().find(|op| self.eat(&op.to_string())) {
            e = Expr::Arith(Box::new(e), op, Box::new(operand(self)?));
        }
        Ok(e)
    }

    fn sum(&mut self) -> Result<Expr, String> {
        self.chain("+-", |p| p.chain("*/", Self::atom))
    }

    fn atom(&mut self) -> Result<Expr, String> {
        if self.eat("(") {
            let e = self.sum()?;
            return if self.eat(")") {
                Ok(e)
            } else {
                Err("missing ')'".into())
            };
        }
        if self.eat("[") {
            let inner = self.until(']')?;
            return Ok(match inner.split_once(':') {
                Some((row, col)) => Expr::Cell(row, col),
                None => Expr::Footer(inner),
            });
        }
        let rest = self.rest();
        let len = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.'))
            .unwrap_or(rest.len());
        let word = &rest[..len];
        self.at += len;
        if let Ok(x) = word.parse::<f64>() {
            return Ok(Expr::Const(x));
        }
        if self.eat("[") {
            let col = self.until(']')?;
            return match word {
                "max" => Ok(Expr::ColMax(col)),
                "min" => Ok(Expr::ColMin(col)),
                "count" => Ok(Expr::Count(col)),
                "gains" => Ok(Expr::Gains(col)),
                _ => Err(format!("unknown column function {word:?}")),
            };
        }
        if self.eat("{") {
            let (config, metric) = self
                .until('}')?
                .split_once('.')
                .ok_or("want {config.metric}")?;
            return match word {
                "mean" => Ok(Expr::Mean(config, metric)),
                "geomean" => Ok(Expr::Geomean(config, metric)),
                _ => Err(format!("unknown metric function {word:?}")),
            };
        }
        if !self.eat("(") {
            return Err(format!("want an operand at {rest:?}"));
        }
        let mut args = vec![self.sum()?];
        while self.eat(",") {
            args.push(self.sum()?);
        }
        if !self.eat(")") {
            return Err("missing ')'".into());
        }
        match word {
            "max" => Ok(Expr::Max(args)),
            "min" => Ok(Expr::Min(args)),
            "abs" if args.len() == 1 => Ok(Expr::Abs(Box::new(args.remove(0)))),
            _ => Err(format!("unknown function {word:?}")),
        }
    }
}

/// The result of checking one claim against a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The expected outcome was observed (the evaluated comparisons).
    Passed(String),
    /// The expected outcome was not observed, or an input was missing.
    Failed(String),
    /// The run cannot judge the claim, and why.
    NotEvaluated(&'static str),
}

/// Where a claim's operands come from.
struct Env<'a, 'm> {
    def: &'a SweepDef,
    values: &'a SweepValues,
    benchmarks: &'a [BenchmarkId],
    budget: Budget,
    lookup: &'a dyn Fn(&str) -> Option<&'m Metrics>,
}

impl Env<'_, '_> {
    fn column(&self, header: &str) -> Result<Vec<Option<f64>>, String> {
        let i = self
            .values
            .headers
            .iter()
            .position(|h| *h == header)
            .ok_or_else(|| format!("{} has no column {header:?}", self.def.name))?;
        Ok(self.values.rows.iter().map(|(_, v)| v[i]).collect())
    }

    /// Every row's value of a column; a missing one is an error.
    fn full_column(&self, header: &str) -> Result<Vec<f64>, String> {
        self.column(header)?
            .into_iter()
            .zip(&self.values.rows)
            .map(|(v, (row, _))| v.ok_or_else(|| format!("{row}:{header} is n/a")))
            .collect()
    }

    fn per_bench(&self, config: &str, metric: &str) -> Result<Vec<f64>, String> {
        self.benchmarks
            .iter()
            .map(|&b| {
                (self.lookup)(&single_key(config, b, self.budget))
                    .and_then(|m| m.get(metric))
                    .ok_or_else(|| format!("{config}/{} records no {metric}", b.name()))
            })
            .collect()
    }

    fn eval(&self, e: &Expr) -> Result<f64, String> {
        let fold = |xs: &[Expr], f: fn(f64, f64) -> f64| {
            xs.iter()
                .map(|x| self.eval(x))
                .reduce(|a, b| Ok(f(a?, b?)))
                .unwrap_or_else(|| Err("max/min of nothing".into()))
        };
        Ok(match e {
            Expr::Const(x) => *x,
            Expr::Footer(col) => {
                self.full_column(col)?;
                let i = self.values.headers.iter().position(|h| h == col);
                i.and_then(|i| self.values.footer[i])
                    .ok_or_else(|| format!("{col} has no footer"))?
            }
            Expr::Cell(row, col) => {
                let i = self
                    .values
                    .rows
                    .iter()
                    .position(|(r, _)| r == row)
                    .ok_or_else(|| format!("{} has no row {row:?}", self.def.name))?;
                self.column(col)?[i].ok_or_else(|| format!("{row}:{col} is n/a"))?
            }
            Expr::ColMax(col) => self.full_column(col)?.into_iter().fold(f64::MIN, f64::max),
            Expr::ColMin(col) => self.full_column(col)?.into_iter().fold(f64::MAX, f64::min),
            Expr::Count(col) => self.column(col)?.iter().flatten().count() as f64,
            Expr::Gains(col) => self
                .column(col)?
                .iter()
                .flatten()
                .filter(|&&v| v > 1.0)
                .count() as f64,
            Expr::Mean(config, metric) => {
                let v = self.per_bench(config, metric)?;
                v.iter().sum::<f64>() / v.len() as f64
            }
            Expr::Geomean(config, metric) => geomean(&self.per_bench(config, metric)?),
            Expr::Max(xs) => fold(xs, f64::max)?,
            Expr::Min(xs) => fold(xs, f64::min)?,
            Expr::Abs(x) => self.eval(x)?.abs(),
            Expr::Arith(a, op, b) => {
                let (a, b) = (self.eval(a)?, self.eval(b)?);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    _ => a / b,
                }
            }
        })
    }

    /// Whether every comparison holds, with the evaluated comparisons.
    fn check(&self, pred: &[Cmp]) -> Result<(bool, String), String> {
        let num = |v: f64| {
            if v.abs() >= 1000.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.3}")
            }
        };
        let mut held = true;
        let mut detail = Vec::new();
        for (a, op, b) in pred {
            let (x, y) = (self.eval(a)?, self.eval(b)?);
            held &= match *op {
                "<" => x < y,
                "<=" => x <= y,
                ">" => x > y,
                _ => x >= y,
            };
            detail.push(format!("{} {op} {}", num(x), num(y)));
        }
        Ok((held, detail.join(", ")))
    }
}

impl Claim {
    /// The `(config, metric)` pairs the claim reads, checking that its
    /// columns and rows exist in `def`, the claim's sweep.
    ///
    /// # Errors
    ///
    /// Names the unknown column or row.
    pub fn reads(&self, def: &SweepDef) -> Result<Vec<(&'static str, &'static str)>, String> {
        let mut out = Vec::new();
        let mut exprs: Vec<&Expr> = self.pred.iter().flat_map(|(a, _, b)| [a, b]).collect();
        let unknown = |what: &str, name: &str| format!("{} has no {what} {name:?}", def.name);
        let column = |header: &str, out: &mut Vec<_>| match &def.kind {
            SweepKind::PerBench(columns) => {
                let col = columns
                    .iter()
                    .find(|c| c.header == header)
                    .ok_or_else(|| unknown("column", header))?;
                match col.value {
                    ColValue::Metric(m) => out.push((col.config, m)),
                    ColValue::Ratio { base, metric } => {
                        out.extend([(base, metric), (col.config, metric)])
                    }
                }
                Ok(())
            }
            _ if header == "hspeedup" => Ok(()),
            _ => Err(unknown("column", header)),
        };
        while let Some(e) = exprs.pop() {
            match e {
                Expr::Const(_) => {}
                Expr::Footer(c)
                | Expr::ColMax(c)
                | Expr::ColMin(c)
                | Expr::Count(c)
                | Expr::Gains(c) => column(c, &mut out)?,
                Expr::Cell(row, c) => {
                    let known = match &def.kind {
                        SweepKind::PerBench(_) => BenchmarkId::parse(row).is_some(),
                        SweepKind::Smt(pairs) => pairs
                            .iter()
                            .any(|(a, b)| format!("{}-{}", a.name(), b.name()) == *row),
                        SweepKind::Multicore(mixes) => mixes.iter().any(|(slug, _)| slug == row),
                    };
                    if !known {
                        return Err(unknown("row", row));
                    }
                    column(c, &mut out)?;
                }
                Expr::Mean(config, metric) | Expr::Geomean(config, metric) => {
                    out.push((config, metric))
                }
                Expr::Max(xs) | Expr::Min(xs) => exprs.extend(xs),
                Expr::Abs(x) => exprs.push(x),
                Expr::Arith(a, _, b) => exprs.extend([&**a, &**b]),
            }
        }
        Ok(out)
    }
}

/// Check `claims` against one run's records.
///
/// `defs` are the sweeps the run selected, `benchmarks` and `budget`
/// its benchmarks and budget, and `lookup` maps a manifest key to the
/// metrics of an `ok` record, as for
/// [`render_sweep`](crate::sweeps::render_sweep). Returns one verdict
/// per claim, in order.
pub fn evaluate<'m>(
    claims: &[Claim],
    defs: &[SweepDef],
    benchmarks: &[BenchmarkId],
    budget: Budget,
    lookup: &dyn Fn(&str) -> Option<&'m Metrics>,
) -> Vec<Verdict> {
    let all_benchmarks = BenchmarkId::ALL.iter().all(|b| benchmarks.contains(b));
    let configs: BTreeSet<&str> = defs
        .iter()
        .filter_map(|d| match &d.kind {
            SweepKind::PerBench(columns) => Some(column_configs(columns)),
            _ => None,
        })
        .flatten()
        .collect();
    let mut values: BTreeMap<&str, SweepValues> = BTreeMap::new();
    claims
        .iter()
        .map(|claim| {
            if !claim.class.reached_by(&budget) {
                return Verdict::NotEvaluated("budget below its class");
            }
            if !all_benchmarks {
                return Verdict::NotEvaluated("benchmark subset");
            }
            let Some(def) = defs.iter().find(|d| d.name == claim.sweep) else {
                return Verdict::NotEvaluated("sweep not selected");
            };
            let reads = match claim.reads(def) {
                Ok(r) => r,
                Err(e) => return Verdict::Failed(e),
            };
            if reads.iter().any(|(config, _)| !configs.contains(config)) {
                return Verdict::NotEvaluated("reads a config outside the selected sweeps");
            }
            let missing = sweep_keys(def, benchmarks, budget)
                .into_iter()
                .chain(reads.iter().flat_map(|(config, _)| {
                    benchmarks.iter().map(|&b| single_key(config, b, budget))
                }))
                .find(|key| lookup(key).is_none());
            if let Some(key) = missing {
                return Verdict::Failed(format!("job {key} has no ok record"));
            }
            let values = values
                .entry(def.name)
                .or_insert_with(|| sweep_values(def, benchmarks, budget, lookup));
            let env = Env {
                def,
                values,
                benchmarks,
                budget,
                lookup,
            };
            match (env.check(&claim.pred), claim.expect) {
                (Err(e), _) => Verdict::Failed(e),
                (Ok((true, d)), Expect::Holds) | (Ok((false, d)), Expect::Diverges(_)) => {
                    Verdict::Passed(d)
                }
                (Ok((false, d)), Expect::Holds) => Verdict::Failed(d),
                (Ok((true, d)), Expect::Diverges(tag)) => {
                    Verdict::Failed(format!("{tag} flipped to the paper's outcome: {d}"))
                }
            }
        })
        .collect()
}

/// The manifest keys of every job a sweep renders.
fn sweep_keys(def: &SweepDef, benchmarks: &[BenchmarkId], budget: Budget) -> Vec<String> {
    let labels = ["base", "tempo"];
    match &def.kind {
        SweepKind::PerBench(columns) => column_configs(columns)
            .into_iter()
            .flat_map(|l| benchmarks.iter().map(move |&b| single_key(l, b, budget)))
            .collect(),
        SweepKind::Smt(pairs) => labels
            .iter()
            .flat_map(|l| pairs.iter().map(|&p| smt_key(l, p, budget.for_smt())))
            .collect(),
        SweepKind::Multicore(mixes) => labels
            .iter()
            .flat_map(|l| {
                mixes
                    .iter()
                    .map(|(slug, _)| mc_key(l, slug, budget.for_multicore()))
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_parse_with_arithmetic_precedence() {
        let c = parse_claim("t/x golden D9 | [pr:A] <= [pr:B] * 1.3 + 2 & max([C], 1) > 0 | text")
            .unwrap();
        let (cell, num) = (
            |r, c| Box::new(Expr::Cell(r, c)),
            |x| Box::new(Expr::Const(x)),
        );
        let scaled = Expr::Arith(cell("pr", "B"), '*', num(1.3));
        assert_eq!(
            c.pred,
            [
                (
                    Expr::Cell("pr", "A"),
                    "<=",
                    Expr::Arith(Box::new(scaled), '+', num(2.0))
                ),
                (
                    Expr::Max(vec![Expr::Footer("C"), Expr::Const(1.0)]),
                    ">",
                    Expr::Const(0.0)
                ),
            ]
        );
        assert_eq!(
            (c.sweep, c.class, c.expect),
            ("t", Class::Golden, Expect::Diverges("D9"))
        );
    }

    #[test]
    fn malformed_lines_are_errors() {
        for line in [
            "t/x smoke | [a] > 1",
            "t/x huge | [a] > 1 | text",
            "t/x smoke | [a] 1 | text",
            "t/x smoke | [a > 1 | text",
            "t/x smoke | sum[a] > 1 | text",
            "t/x smoke | [a] > 1 2 | text",
        ] {
            assert!(parse_claim(line).is_err(), "{line}");
        }
    }
}
