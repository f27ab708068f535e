//! Table I: the simulated machine parameters (the defaults baked into
//! [`MachineConfig`]).

use atc_experiments::Opts;
use atc_stats::table::Table;
use atc_types::config::MachineConfig;

fn main() {
    let opts = Opts::parse();
    let m = MachineConfig::default();
    let mut t = Table::new(&["component", "parameters"]);
    t.row(&[
        "Core".to_string(),
        format!(
            "out-of-order, 4 GHz, {}-issue, {}-retire, {}-entry ROB",
            m.core.issue_width, m.core.retire_width, m.core.rob_entries
        ),
    ]);
    t.row(&[
        "TLBs".to_string(),
        format!(
            "{}-entry {}-way DTLB ({} cycle); {}-entry {}-way STLB ({} cycles)",
            m.dtlb.entries,
            m.dtlb.ways,
            m.dtlb.latency,
            m.stlb.entries,
            m.stlb.ways,
            m.stlb.latency
        ),
    ]);
    t.row(&[
        "MMU".to_string(),
        format!(
            "PSCL5 {} / PSCL4 {} / PSCL3 {} / PSCL2 {} entries, parallel, {} cycle",
            m.psc.pscl5_entries,
            m.psc.pscl4_entries,
            m.psc.pscl3_entries,
            m.psc.pscl2_entries,
            m.psc.latency
        ),
    ]);
    t.row(&[
        "L1D".to_string(),
        format!(
            "{} KiB {}-way ({} cycles), LRU",
            m.l1d.size_bytes / 1024,
            m.l1d.ways,
            m.l1d.latency
        ),
    ]);
    t.row(&[
        "L2C".to_string(),
        format!(
            "{} KiB {}-way ({} cycles), DRRIP",
            m.l2c.size_bytes / 1024,
            m.l2c.ways,
            m.l2c.latency
        ),
    ]);
    t.row(&[
        "LLC".to_string(),
        format!(
            "{} MiB/slice {}-way ({} cycles), SHiP",
            m.llc.size_bytes >> 20,
            m.llc.ways,
            m.llc.latency
        ),
    ]);
    t.row(&[
        "DRAM".to_string(),
        format!(
            "{} channel(s), {} banks, row hit/miss {}/{} cycles (DDR5-6400 @ 4 GHz)",
            m.dram.channels,
            m.dram.banks_per_channel,
            m.dram.row_hit_cycles,
            m.dram.row_miss_cycles
        ),
    ]);
    opts.emit("Table I: simulated parameters", &t);
}
