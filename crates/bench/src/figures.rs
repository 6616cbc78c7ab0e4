//! The reproduction, stated once: every figure, table and ablation of the
//! paper's evaluation is one entry of [`FIGURES`] — one sweep that yields
//! the artefact's table and, from the same numbers, what the paper claims
//! about it next to the band this repository holds itself to.
//! `repro_report` prints the slice, `tests/paper_claims.rs` asserts its
//! bands; nothing else states them.

use std::ops::RangeInclusive;
use std::rc::Rc;

use memsim::{InstanceSpec, SimTime, SystemSpec, TrainingCost};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scratchpipe::{EvictionPolicy, WindowConfig};
use systems::{
    CacheMode, ExperimentConfig, HybridCpuGpu, ModelShape, ScratchPipeMultiGpu, ScratchPipeSystem,
    StaticCacheSystem, SystemKind, SystemReport, TrainingSystem,
};
use tracegen::{
    AccessHistogram, DatasetModel, LocalityProfile, Scrambler, TableProfile, ZipfSampler,
};

use crate::{ms, speedup, Runs};

/// The one relative margin of every [`Claim::band`]: twice, rounded up, the
/// largest move of any claim's value between `SP_ITERS` 8 (the test) and 12
/// (the ledger) — 4.35 %, the batch ablation's smallest speedup.
pub const MARGIN: f64 = 0.10;

/// One quantitative statement of the paper next to this repository's value.
#[derive(Debug, Clone)]
pub struct Claim {
    /// The quantity, with its unit.
    pub what: &'static str,
    /// The paper's statement as a closed interval: a value is `(v, v)`, a
    /// bound `(v, ∞)` or `(-∞, v)`, a range `(lo, hi)`.
    pub paper: (f64, f64),
    /// This repository's value, from the simulations just run.
    pub ours: f64,
    /// The regression guard `ours` must stay inside: the value the
    /// committed ledger records, give or take [`MARGIN`].
    pub band: RangeInclusive<f64>,
}

/// A claim guarded by `ledger ±` [`MARGIN`].
fn claim(what: &'static str, paper: (f64, f64), ours: f64, ledger: f64) -> Claim {
    let band = ledger * (1.0 - MARGIN)..=ledger * (1.0 + MARGIN);
    Claim {
        what,
        paper,
        ours,
        band,
    }
}

impl Claim {
    /// The paper's statement as the paper writes it.
    pub fn paper_text(&self) -> String {
        match self.paper {
            (lo, hi) if lo == hi => format!("{lo}"),
            (lo, f64::INFINITY) => format!("≥ {lo}"),
            (f64::NEG_INFINITY, hi) => format!("≤ {hi}"),
            (lo, hi) => format!("{lo}–{hi}"),
        }
    }

    /// `reproduced` when the paper's value lies inside the band — or, where
    /// the paper states a bound or a range, when `ours` satisfies it — else
    /// the gap to the nearest value the paper allows.
    pub fn verdict(&self) -> String {
        let (lo, hi) = self.paper;
        let reproduced = if lo == hi {
            self.band.contains(&lo)
        } else {
            (lo..=hi).contains(&self.ours)
        };
        if reproduced {
            return "reproduced".to_owned();
        }
        let (ours, nearest) = (self.ours, if self.ours < lo { lo } else { hi });
        let gap = 100.0 * (ours - nearest) / nearest;
        format!(
            "deviates (ours {ours:.2}, paper {}, {gap:+.0} %)",
            self.paper_text()
        )
    }
}

/// A table's rows, cell by cell.
pub type Rows = Vec<Vec<String>>;

/// One artefact of the paper's evaluation.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Selector on `repro_report`'s command line, and the CSV's stem.
    pub id: &'static str,
    /// Where the paper shows it, and what the table holds.
    pub title: &'static str,
    /// Column headers, comma-separated: the CSV's first line.
    pub headers: &'static str,
    /// Runs the sweep: the table's rows, and the paper's claims about
    /// them evaluated on the same numbers.
    pub table: fn(&mut Runs) -> (Rows, Vec<Claim>),
}

/// Every figure, table and ablation, in the paper's order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "fig03",
        title: "Figure 3 — sorted access counts (first table of each dataset model)",
        headers: "dataset,table,rows,zipf s,rank 1,rank 10,rank 100,rank 10k,median,top-2% share",
        table: fig03,
    },
    Figure {
        id: "fig05",
        title: "Figure 5 — training-time breakdown (ms/iteration)",
        headers: "system,locality,CPU emb fwd,CPU emb bwd,GPU,total,CPU share",
        table: fig05,
    },
    Figure {
        id: "fig06",
        title: "Figure 6 — static-cache hit rate vs cache size",
        headers: "dataset,table,2%,5%,10%,20%,40%,65%,100%",
        table: fig06,
    },
    Figure {
        id: "fig12a",
        title: "Figure 12(a) — latency breakdown, hybrid + static cache (ms/iteration)",
        headers: "locality,cache,CPU emb fwd,CPU emb bwd,GPU,total,hit rate",
        table: fig12a,
    },
    Figure {
        id: "fig12b",
        title: "Figure 12(b) — ScratchPipe per-stage pipeline latency (ms)",
        headers: "locality,cache,Plan,Collect,Exchange,Insert,Train,pipeline cycle,hit rate",
        table: fig12b,
    },
    Figure {
        id: "fig13",
        title: "Figure 13 — speedup normalized to static cache",
        headers: "locality,cache,Hybrid CPU-GPU,Static cache,Straw-man,ScratchPipe,static (ms),\
                  ScratchPipe (ms)",
        table: fig13,
    },
    Figure {
        id: "fig14",
        title: "Figure 14 — energy per iteration (J), static cache (2%) vs ScratchPipe (2%)",
        headers: "locality,static CPU J,static GPU J,static total J,ScratchPipe CPU J,\
                  ScratchPipe GPU J,ScratchPipe total J,ratio",
        table: fig14,
    },
    Figure {
        id: "fig15a",
        title: "Figure 15(a) — speedup vs static cache across embedding dimensions",
        headers: "locality,dim,Hybrid CPU-GPU,Static cache,Straw-man,ScratchPipe",
        table: fig15a,
    },
    Figure {
        id: "fig15b",
        title: "Figure 15(b) — speedup vs static cache across lookups per table",
        headers: "locality,lookups,Hybrid CPU-GPU,Static cache,Straw-man,ScratchPipe",
        table: fig15b,
    },
    Figure {
        id: "table1",
        title: "Table I — training cost per 1M iterations",
        headers: "dataset,system,instance,price/hr,iter time (ms),1M-iter cost,cost saving",
        table: table1,
    },
    Figure {
        id: "table_overhead",
        title: "§VI-D — measured peak held working set of the sliding window (the one table \
                simulated from a cold scratchpad, and over at least 12 iterations)",
        headers: "locality,peak held slots (all tables),peak held MB,worst-case MiB,\
                  fraction of worst case",
        table: table_overhead,
    },
    Figure {
        id: "ablation_policy",
        title: "§VI-E — eviction-policy ablation (ScratchPipe, 2% scratchpad)",
        headers: "locality,policy,hit rate,iteration (ms),vs LRU",
        table: ablation_policy,
    },
    Figure {
        id: "ablation_batch",
        title: "§VI-E — batch-size robustness (speedup vs static cache, 2% cache)",
        headers: "locality,batch,static (ms),ScratchPipe (ms),speedup",
        table: ablation_batch,
    },
    Figure {
        id: "ext_multigpu",
        title: "§VI-G extension — ScratchPipe on 8 GPUs vs 1 GPU vs GPU-only (2% cache)",
        headers: "locality,system,iter (ms),speedup vs 1-GPU SP,1M-iter cost,cost vs 1-GPU SP",
        table: ext_multigpu,
    },
];

const SWEEP: [LocalityProfile; 4] = LocalityProfile::SWEEP;
const CACHE_PCTS: [usize; 5] = [2, 4, 6, 8, 10];
const INF: f64 = f64::INFINITY;

type Report = Rc<SystemReport>;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(INF, f64::min)
}

fn percent(rate: f64, decimals: usize) -> String {
    format!("{:.decimals$}%", 100.0 * rate)
}

fn name(profile: LocalityProfile) -> String {
    profile.name().to_owned()
}

/// The memoised report of `kind` at paper scale.
fn at(runs: &mut Runs, kind: SystemKind, profile: LocalityProfile, fraction: f64) -> Report {
    runs.get(kind, &runs.paper(profile, fraction))
}

// ---- Figures 3 and 6: the dataset models' access skew ---------------------

/// Per-row access counts of `draws` samples of one table's popularity model.
fn sampled(profile: &TableProfile, draws: usize, scramble: u64, seed: u64) -> AccessHistogram {
    let sampler = ZipfSampler::new(profile.rows, profile.zipf_exponent);
    let scrambler = Scrambler::new(profile.rows, scramble);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = AccessHistogram::new(profile.rows);
    for _ in 0..draws {
        hist.record(scrambler.apply(sampler.sample(&mut rng)));
    }
    hist
}

fn fig03(_: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut top2) = (Vec::new(), Vec::new());
    for dataset in DatasetModel::all() {
        let profile = &dataset.tables[0];
        let hist = sampled(profile, 2_000_000, 7, 42);
        let sorted = hist.sorted_counts();
        let at = |rank: usize| sorted.get(rank).copied().unwrap_or(0).to_string();
        top2.push(100.0 * hist.top_fraction_share(0.02));
        let mut row = vec![dataset.name.clone(), profile.name.clone()];
        row.extend([
            profile.rows.to_string(),
            format!("{:.2}", profile.zipf_exponent),
        ]);
        row.extend([0, 9, 99, 9_999, sorted.len() / 2].map(at));
        row.push(format!("{:.1}%", top2[rows.len()]));
        rows.push(row);
    }
    // `DatasetModel::all()` starts with Alibaba and ends with Criteo.
    #[rustfmt::skip]
    let claims = vec![
        claim("Criteo: share of accesses to the hottest 2 % of rows (%)",   (80.0, INF), top2[3], 86.38),
        claim("Alibaba User: share of accesses to the hottest 2 % (%)",     (8.5, 8.5),  top2[0], 9.85),
    ];
    (rows, claims)
}

fn fig06(_: &mut Runs) -> (Rows, Vec<Claim>) {
    let fractions = [0.02, 0.05, 0.10, 0.20, 0.40, 0.65, 1.0];
    let (mut rows, mut needed) = (Vec::new(), Vec::new());
    for dataset in DatasetModel::all() {
        for profile in &dataset.tables {
            let curve = sampled(profile, 1_000_000, 11, 5).hit_rate_curve(&fractions);
            let reaches = curve.iter().find(|&&(_, hits)| hits >= 0.9);
            needed.push(reaches.map_or(100.0, |&(cached, _)| 100.0 * cached));
            let mut row = vec![dataset.name.clone(), profile.name.clone()];
            row.extend(curve.iter().map(|&(_, hits)| percent(hits, 1)));
            rows.push(row);
        }
    }
    // Alibaba's User table is the first row.
    let what = "Alibaba User: smallest swept cache reaching 90 % hits (% of the table)";
    (rows, vec![claim(what, (65.0, INF), needed[0], 65.00)])
}

// ---- Figures 5 and 12(a): where the baselines spend an iteration ----------

/// One bar of Figures 5 / 12(a): the baseline's report, and its iteration
/// grouped into (CPU embedding forward, CPU embedding backward, GPU).
fn bar(runs: &mut Runs, profile: LocalityProfile, fraction: f64) -> (Report, [SimTime; 3]) {
    let (kind, groups) = if fraction == 0.0 {
        (SystemKind::Hybrid, HybridCpuGpu::FIG5_GROUPS)
    } else {
        (SystemKind::StaticCache, StaticCacheSystem::FIG5_GROUPS)
    };
    let report = at(runs, kind, profile, fraction);
    let g = report.grouped_breakdown(&groups);
    let bar = [g[0].1, g[1].1, g[2].1];
    (report, bar)
}

fn fig05(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let systems = [
        (0.0, "Hybrid CPU-GPU"),
        (0.02, "Static cache (2%)"),
        (0.10, "Static cache (10%)"),
    ];
    let (mut rows, mut total_ms, mut cpu_share) = (Vec::new(), Vec::new(), Vec::new());
    for (fraction, label) in systems {
        for profile in SWEEP {
            let (report, g) = bar(runs, profile, fraction);
            total_ms.push(report.iteration_time.as_millis());
            cpu_share.push(100.0 * ((g[0] + g[1]) / report.iteration_time));
            let mut row = vec![label.to_owned(), name(profile)];
            row.extend(g.map(ms));
            row.extend([
                ms(report.iteration_time),
                format!("{:.0}%", cpu_share[rows.len()]),
            ]);
            rows.push(row);
        }
    }
    // Rows 0..4 are the hybrid's.
    #[rustfmt::skip]
    let claims = vec![
        claim("150–200 ms: hybrid iteration, slowest locality (ms)",    (200.0, 200.0), max(&total_ms[..4]), 200.83),
        claim("150–200 ms: hybrid iteration, fastest locality (ms)",    (150.0, 150.0), min(&total_ms[..4]), 140.84),
        claim("77–94 %: CPU share of the iteration, largest bar (%)",   (94.0, 94.0),   max(&cpu_share),     93.53),
        claim("77–94 %: CPU share of the iteration, smallest bar (%)",  (77.0, 77.0),   min(&cpu_share),     32.51),
    ];
    (rows, claims)
}

fn fig12a(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut miss) = (Vec::new(), Vec::new());
    for profile in SWEEP {
        for pct in [0usize, 2, 4, 6, 8, 10] {
            let (report, g) = bar(runs, profile, pct as f64 / 100.0);
            if pct == 2 {
                miss.push(100.0 * (1.0 - report.hit_rate.unwrap_or(0.0)));
            }
            let mut row = vec![name(profile), format!("{pct}%")];
            row.extend(g.map(ms));
            let hit_rate = report.hit_rate.map_or("-".to_owned(), |h| percent(h, 0));
            row.extend([ms(report.iteration_time), hit_rate]);
            rows.push(row);
        }
    }
    // One miss rate per locality, in `SWEEP`'s order: Low second, High last.
    #[rustfmt::skip]
    let claims = vec![
        claim("§III-B: static-cache (2 %) miss rate, High locality (%)",    (12.0, 12.0), miss[3], 16.57),
        claim("§III-B: static-cache (2 %) miss rate, Low locality (%)",     (91.0, 91.0), miss[1], 91.51),
    ];
    (rows, claims)
}

// ---- Figure 12(b): ScratchPipe's stages -----------------------------------

fn fig12b(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut train_over_cpu) = (Vec::new(), Vec::new());
    for profile in SWEEP {
        for pct in CACHE_PCTS {
            let report = at(runs, SystemKind::ScratchPipe, profile, pct as f64 / 100.0);
            let b = &report.breakdown;
            // [Train] against the CPU-side stages, [Collect] + [Insert].
            train_over_cpu.push(b[4].1 / (b[1].1 + b[3].1));
            let mut row = vec![name(profile), format!("{pct}%")];
            row.extend(b.iter().map(|stage| ms(stage.1)));
            let hit_rate = report.hit_rate.map(|h| percent(h, 0)).unwrap_or_default();
            row.extend([ms(report.iteration_time), hit_rate]);
            rows.push(row);
        }
    }
    // Five rows per locality: Random at 2 % is row 0, High at 10 % row 19.
    let (high, random) = (train_over_cpu[19], 1.0 / train_over_cpu[0]);
    #[rustfmt::skip]
    let claims = vec![
        claim("High, 10 %: Train ÷ (Collect + Insert), Train-bound (×)",    (1.0, INF), high,   4.00),
        claim("Random, 2 %: (Collect + Insert) ÷ Train, CPU-bound (×)",     (1.0, INF), random, 2.58),
    ];
    (rows, claims)
}

// ---- Figures 13, 15(a), 15(b): four systems normalised to the static cache -

/// The sweep behind Figures 13 / 15(a) / 15(b): the iteration times of
/// Figure 13's four systems at every locality × `knobs` value, and the
/// rows that normalise them to the static cache.
fn four_systems(
    runs: &mut Runs,
    knobs: &[usize],
    unit: &str,
    cfg: fn(&Runs, LocalityProfile, usize) -> ExperimentConfig,
) -> (Rows, Vec<[SimTime; 4]>) {
    let (mut rows, mut times) = (Vec::new(), Vec::new());
    for profile in SWEEP {
        for &knob in knobs {
            let cfg = cfg(runs, profile, knob);
            let t = SystemKind::FIGURE13.map(|kind| runs.get(kind, &cfg).iteration_time);
            let mut row = vec![name(profile), format!("{knob}{unit}")];
            row.extend(t.map(|system| speedup(t[1] / system)));
            rows.push(row);
            times.push(t);
        }
    }
    (rows, times)
}

/// ScratchPipe's speedup over system `over` of [`SystemKind::FIGURE13`] at
/// every third point from `first` on (`step` 1: at every point).
fn gains(times: &[[SimTime; 4]], over: usize, first: usize, step: usize) -> Vec<f64> {
    let picked = times.iter().skip(first).step_by(step);
    picked.map(|t| t[over] / t[3]).collect()
}

fn fig13(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let cfg = |runs: &Runs, profile, pct| runs.paper(profile, pct as f64 / 100.0);
    let (mut rows, times) = four_systems(runs, &CACHE_PCTS, "%", cfg);
    for (row, t) in rows.iter_mut().zip(&times) {
        row.extend([ms(t[1]), ms(t[3])]);
    }
    let [hybrid, cache, straw] = [0, 1, 2].map(|over| gains(&times, over, 0, 1));
    #[rustfmt::skip]
    let claims = vec![
        claim("ScratchPipe vs static cache, mean of the 20 points (×)", (2.8, 2.8), mean(&cache),  2.90),
        claim("ScratchPipe vs static cache, max (×)",                   (4.2, 4.2), max(&cache),   3.68),
        claim("ScratchPipe vs static cache, min (×)",                   (1.6, INF), min(&cache),   1.76),
        claim("ScratchPipe vs hybrid, mean (×)",                        (5.1, 5.1), mean(&hybrid), 5.57),
        claim("ScratchPipe vs hybrid, max (×)",                         (6.6, 6.6), max(&hybrid),  8.88),
        claim("ScratchPipe vs its unpipelined straw-man, min (×)",      (1.0, INF), min(&straw),   1.32),
    ];
    (rows, claims)
}

fn shaped(runs: &Runs, profile: LocalityProfile, shape: ModelShape) -> ExperimentConfig {
    ExperimentConfig {
        shape,
        ..runs.paper(profile, 0.02)
    }
}

fn fig15a(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let cfg = |runs: &Runs, profile, dim| shaped(runs, profile, ModelShape::paper_with_dim(dim));
    let (rows, times) = four_systems(runs, &[64, 128, 256], "", cfg);
    // Three rows per locality: 64-d first, 256-d third.
    let trend = mean(&gains(&times, 1, 2, 3)) / mean(&gains(&times, 1, 0, 3));
    let what = "gain grows with dimension: mean speedup at 256-d ÷ at 64-d (×)";
    (rows, vec![claim(what, (1.0, INF), trend, 0.96)])
}

fn fig15b(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let cfg = |runs: &Runs, profile, n| shaped(runs, profile, ModelShape::paper_with_lookups(n));
    let (rows, times) = four_systems(runs, &[1, 20, 50], "", cfg);
    // Three rows per locality: 1 lookup first, 50 lookups third.
    let (one, fifty) = (gains(&times, 1, 0, 3), gains(&times, 1, 2, 3));
    #[rustfmt::skip]
    let claims = vec![
        claim("50 lookups: ScratchPipe vs static cache, mean (×)",  (3.7, 3.7), mean(&fifty), 3.02),
        claim("50 lookups: ScratchPipe vs static cache, max (×)",   (5.6, 5.6), max(&fifty),  3.22),
        claim("1 lookup: ScratchPipe vs static cache, min (×)",     (1.0, INF), min(&one),    1.28),
    ];
    (rows, claims)
}

// ---- Figure 14: energy ----------------------------------------------------

fn fig14(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut tracking, mut joules) = (Vec::new(), Vec::new(), Vec::new());
    for profile in SWEEP {
        let stat = at(runs, SystemKind::StaticCache, profile, 0.02);
        let sp = at(runs, SystemKind::ScratchPipe, profile, 0.02);
        let (se, pe) = (stat.energy_per_iteration, sp.energy_per_iteration);
        let energy_ratio = se.total_joules() / pe.total_joules();
        tracking.push(energy_ratio / (stat.iteration_time / sp.iteration_time));
        joules.push(se.total_joules());
        let cells = [se, pe].map(|e| [e.cpu_joules, e.gpu_joules, e.total_joules()]);
        let mut row = vec![name(profile)];
        row.extend(cells.concat().iter().map(|j| format!("{j:.1}")));
        row.push(format!("{energy_ratio:.2}x"));
        rows.push(row);
    }
    #[rustfmt::skip]
    let claims = vec![
        claim("energy ratio ÷ time ratio, static / ScratchPipe, max (×)",  (1.0, 1.0),   max(&tracking), 0.70),
        claim("energy ratio ÷ time ratio, static / ScratchPipe, min (×)",  (1.0, 1.0),   min(&tracking), 0.62),
        claim("static cache, largest bar, on a 0–80 J axis (J)",           (-INF, 80.0), max(&joules),   32.33),
        claim("static cache, smallest bar, tens of J (J)",                 (10.0, INF),  min(&joules),   13.12),
    ];
    (rows, claims)
}

// ---- Table I and the §VI-G extension: time and money ----------------------

/// `report` with what a million of its iterations cost on `instance`.
fn priced(report: Report, instance: InstanceSpec) -> (Report, TrainingCost) {
    let cost = TrainingCost::per_million_iterations(instance, report.iteration_time);
    (report, cost)
}

/// (ScratchPipe on a p3.2xlarge, the GPU-only node on a p3.16xlarge) at 2 %.
fn table1_pair(runs: &mut Runs, profile: LocalityProfile) -> [(Report, TrainingCost); 2] {
    let sp = at(runs, SystemKind::ScratchPipe, profile, 0.02);
    let mg = at(runs, SystemKind::MultiGpu8, profile, 0.02);
    [
        priced(sp, InstanceSpec::p3_2xlarge()),
        priced(mg, InstanceSpec::p3_16xlarge()),
    ]
}

fn table1(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut savings) = (Vec::new(), Vec::new());
    let (mut times, mut costs) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    for profile in SWEEP {
        let pair = table1_pair(runs, profile);
        let saving = pair[1].1.total_usd / pair[0].1.total_usd;
        savings.push(saving);
        let labels = [("ScratchPipe", saving), ("8 GPU", 1.0)];
        for (i, ((report, cost), (system, saving))) in pair.iter().zip(labels).enumerate() {
            times[i].push(report.iteration_time.as_millis());
            costs[i].push(cost.total_usd);
            let mut row = vec![name(profile), system.to_owned(), cost.instance.name.clone()];
            row.push(format!("${:.2}", cost.instance.price_per_hour));
            row.extend([ms(report.iteration_time), format!("${:.2}", cost.total_usd)]);
            row.push(format!("{saving:.2}x"));
            rows.push(row);
        }
    }
    // Index 0 is ScratchPipe / Random, 1 the 8-GPU node / …, 3 High.
    let ([sp_ms, mg_ms], trend) = (&times, savings[3] / savings[0]);
    #[rustfmt::skip]
    let claims = vec![
        claim("cost saving vs the 8-GPU node, mean (×)",        (4.0, 4.0),     mean(&savings), 3.90),
        claim("cost saving vs the 8-GPU node, max (×)",         (5.7, 5.7),     max(&savings),  6.55),
        claim("saving rises with locality: High ÷ Random (×)",  (1.0, INF),     trend,          2.61),
        claim("Random: ScratchPipe iteration (ms)",             (47.82, 47.82), sp_ms[0],       51.31),
        claim("Random: ScratchPipe, 1 M iterations ($)",        (40.64, 40.64), costs[0][0],    43.62),
        claim("Random: 8-GPU iteration (ms)",                   (16.22, 16.22), mg_ms[0],       16.13),
        claim("Random: 8-GPU, 1 M iterations ($)",              (110.3, 110.3), costs[1][0],    109.71),
        claim("26–48 ms: ScratchPipe iteration, fastest (ms)",  (26.0, 26.0),   min(sp_ms),     22.62),
        claim("26–48 ms: ScratchPipe iteration, slowest (ms)",  (48.0, 48.0),   max(sp_ms),     51.31),
        claim("16–19 ms: 8-GPU iteration, fastest (ms)",        (16.0, 16.0),   min(mg_ms),     16.13),
        claim("16–19 ms: 8-GPU iteration, slowest (ms)",        (19.0, 19.0),   max(mg_ms),     18.53),
    ];
    (rows, claims)
}

fn ext_multigpu(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut premium) = (Vec::new(), Vec::new());
    for profile in SWEEP {
        let cfg = runs.paper(profile, 0.02);
        let [single, gpu_only] = table1_pair(runs, profile);
        let spec = SystemSpec::p3_16xlarge();
        let multi = ScratchPipeMultiGpu::new(cfg.shape.clone(), cfg.cache_fraction, spec);
        let hot = cfg.hot_rows(multi.slots_per_table() as u64);
        let multi = runs.uncached(|| multi.with_prewarm(hot).simulate(&cfg.batches()));
        let multi = Rc::new(multi.expect("8-GPU ScratchPipe simulates"));
        let multi = priced(multi, InstanceSpec::p3_16xlarge());
        let (single_time, single_usd) = (single.0.iteration_time, single.1.total_usd);
        premium.push(multi.1.total_usd / single_usd);
        for (report, cost) in [single, multi, gpu_only] {
            rows.push(vec![
                name(profile),
                report.system.clone(),
                ms(report.iteration_time),
                format!("{:.2}x", single_time / report.iteration_time),
                format!("${:.2}", cost.total_usd),
                format!("{:.2}x", cost.total_usd / single_usd),
            ]);
        }
    }
    let what = "8-GPU ScratchPipe never the TCO winner: cost ÷ 1-GPU ScratchPipe's, min (×)";
    (rows, vec![claim(what, (1.0, INF), min(&premium), 6.32)])
}

// ---- §VI-D: scratchpad provisioning ---------------------------------------

fn table_overhead(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let shape = ModelShape::paper_default();
    // Worst case: every lookup of every batch in the window a distinct row.
    let window = u64::from(WindowConfig::PAPER.width());
    let worst_bytes = shape.lookups_per_batch() * shape.row_bytes() * window;
    let worst_mib = worst_bytes >> 20;
    let mut rows = Vec::new();
    for profile in SWEEP {
        let cfg = ExperimentConfig::paper(profile, 0.02, runs.iterations().max(12));
        // Not `run_system`: that pre-warms, and the held set of interest
        // is the one a scratchpad filling from empty builds up.
        let mut sys = ScratchPipeSystem::new(shape.clone(), 0.02, CacheMode::Pipelined, cfg.spec);
        let simulated = runs.uncached(|| sys.simulate(&cfg.batches()));
        simulated.expect("cold ScratchPipe simulates");
        let report = sys
            .last_pipeline_report()
            .expect("simulate leaves its report");
        let held: u64 = report.peak_held_slots.iter().map(|&p| p as u64).sum();
        let held_bytes = (held * shape.row_bytes()) as f64;
        rows.push(vec![
            name(profile),
            held.to_string(),
            format!("{:.0}", held_bytes / 1e6),
            worst_mib.to_string(),
            format!("{:.1}%", 100.0 * held_bytes / worst_bytes as f64),
        ]);
    }
    let what = "worst case: 327 680 lookups × 512 B × 6 batches in flight (MiB)";
    (
        rows,
        vec![claim(what, (960.0, 960.0), worst_mib as f64, 960.0)],
    )
}

// ---- §VI-E: ablations -----------------------------------------------------

fn ablation_policy(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut slowdown) = (Vec::new(), Vec::new());
    for profile in SWEEP {
        let mut lru_time = None;
        for policy in EvictionPolicy::ALL {
            let cfg = ExperimentConfig {
                policy,
                ..runs.paper(profile, 0.02)
            };
            let r = runs.get(SystemKind::ScratchPipe, &cfg);
            let base = *lru_time.get_or_insert(r.iteration_time);
            slowdown.push(r.iteration_time / base);
            let hit_rate = r.hit_rate.map(|h| percent(h, 1)).unwrap_or_default();
            rows.push(vec![
                name(profile),
                policy.to_string(),
                hit_rate,
                ms(r.iteration_time),
                format!("{:.2}x", base / r.iteration_time),
            ]);
        }
    }
    let what = "policies within a few % (read as ± 5 %): slowest policy ÷ LRU (×)";
    (rows, vec![claim(what, (0.95, 1.05), max(&slowdown), 1.00)])
}

fn ablation_batch(runs: &mut Runs) -> (Rows, Vec<Claim>) {
    let (mut rows, mut gain) = (Vec::new(), Vec::new());
    for profile in [
        LocalityProfile::Random,
        LocalityProfile::Medium,
        LocalityProfile::High,
    ] {
        for batch in [512usize, 2048, 8192] {
            let mut cfg = runs.paper(profile, 0.02);
            cfg.shape.batch_size = batch;
            let stat = runs.get(SystemKind::StaticCache, &cfg);
            let sp = runs.get(SystemKind::ScratchPipe, &cfg);
            gain.push(sp.speedup_over(&stat));
            let mut row = vec![name(profile), batch.to_string(), ms(stat.iteration_time)];
            row.extend([ms(sp.iteration_time), speedup(gain[rows.len()])]);
            rows.push(row);
        }
    }
    let what = "advantage persists over batch 512…8192: vs static cache, min (×)";
    (rows, vec![claim(what, (1.0, INF), min(&gain), 1.60)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_the_docs_name_only_real_ones() {
        let mut ids: Vec<&str> = FIGURES.iter().map(|figure| figure.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), FIGURES.len(), "duplicate figure id");
        // Every id argument of a `--bin repro_report` command the docs show.
        for text in [include_str!("../../../README.md"), include_str!("lib.rs")] {
            for command in text
                .lines()
                .filter_map(|l| l.split("--bin repro_report").nth(1))
            {
                let is_id =
                    |word: &&str| word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                for id in command.split_whitespace().take_while(is_id) {
                    assert!(
                        ids.contains(&id),
                        "the docs run `repro_report {id}`: no such id"
                    );
                }
            }
        }
    }

    #[test]
    fn verdicts_follow_from_the_band() {
        let verdict = |paper, ours| claim("x", paper, ours, ours).verdict();
        assert_eq!(verdict((2.8, 2.8), 2.92), "reproduced");
        assert_eq!(
            verdict((6.6, 6.6), 9.0),
            "deviates (ours 9.00, paper 6.6, +36 %)"
        );
        // The margin does not soften a bound or a range.
        assert_eq!(
            verdict((1.0, INF), 0.96),
            "deviates (ours 0.96, paper ≥ 1, -4 %)"
        );
        assert_eq!(verdict((1.0, INF), 1.3), "reproduced");
        assert_eq!(verdict((-INF, 80.0), 32.0), "reproduced");
        assert_eq!(
            verdict((-INF, 80.0), 88.0),
            "deviates (ours 88.00, paper ≤ 80, +10 %)"
        );
        assert_eq!(verdict((0.95, 1.05), 1.0), "reproduced");
        assert_eq!(
            verdict((0.95, 1.05), 1.2),
            "deviates (ours 1.20, paper 0.95–1.05, +14 %)"
        );
        let guarded = claim("x", (2.8, 2.8), 2.9, 2.92);
        assert!(guarded.band.contains(&guarded.ours) && !guarded.band.contains(&3.3));
    }
}
