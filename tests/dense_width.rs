//! The dense step across the worker pool: `DlrmModel::train_step_on`
//! computes, at every pool width, the bits of the one-thread step.
//!
//! The step runs in two regions — per contiguous sample range (forward,
//! loss terms, every layer's `dx`), then per block of weight rows and per
//! table (the SGD update, the pooled-embedding gradients) — and no
//! reduction is split between tasks, so widths 1/2/3/4 must agree on the
//! loss, the logits, `emb_grads` and every parameter, including batches
//! with fewer samples than the pool has workers. Width 2 must also
//! reproduce `tests/golden_dense.rs`'s digests, which were recorded
//! before the step had regions at all; the digest is computed the same
//! way (same inputs, same shadow `Mlp`s through the public allocating
//! wrappers, same folds).
//!
//! The last case runs a fanned step inside the pipeline: a supervised run
//! whose \[Train\] scatter panics after the dense step of its iteration
//! moved the weights must end with the fault-free run's tables and model.

use scratchpipe_repro::dlrm::{
    interaction, loss, DlrmConfig, DlrmModel, DlrmScratch, ForkJoin, Mlp,
};
use scratchpipe_repro::embeddings::EmbeddingTable;
use scratchpipe_repro::scratchpipe::stages::DENSE_FAN_OUT_MIN_FLOPS;
use scratchpipe_repro::scratchpipe::{
    Fault, FaultKind, FaultPlan, Pipeline, PipelineConfig, RecoveryPolicy, Schedule, ScratchError,
    WorkerPool,
};
use scratchpipe_repro::systems::DlrmBackend;
use scratchpipe_repro::tracegen::{LocalityProfile, TraceConfig, TraceGenerator};

const LR: f32 = 0.05;
const MODEL_SEED: u64 = 20220618;
const WIDTHS: [usize; 4] = [1, 2, 3, 4];

/// A [`WorkerPool`] as the step's fork-join.
struct Pool(WorkerPool);

impl ForkJoin for Pool {
    type Error = ScratchError;

    fn width(&self) -> usize {
        self.0.threads()
    }

    fn join<F: FnOnce() + Send>(&self, tasks: impl Iterator<Item = F>) -> Result<(), ScratchError> {
        self.0.run_tasks(tasks.collect()).map(drop)
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` values on a 2⁻²³ grid in `[-scale, scale)` — exact in `f32`.
fn floats(state: &mut u64, n: usize, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|_| ((splitmix(state) >> 40) as f32 / 8_388_608.0 - 1.0) * scale)
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, v: u32) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn fold_all(&mut self, vs: &[f32]) {
        self.fold(vs.len() as u32);
        for v in vs {
            self.fold(v.to_bits());
        }
    }
}

fn bits(vs: &[f32]) -> Vec<u32> {
    vs.iter().map(|v| v.to_bits()).collect()
}

/// Trains `cfg` one step per entry of `batches` at every width of
/// [`WIDTHS`] side by side, each width on its own scratch reused across
/// the steps. Every width must match the shadow step's loss, logits and
/// `emb_grads` bit for bit at every step, and every width's model must
/// equal width 1's at the end. Returns `golden_dense`'s digest of the
/// run.
fn digest(cfg: &DlrmConfig, batches: &[usize]) -> u64 {
    let (t, d) = (cfg.num_tables, cfg.emb_dim);
    let pools = WIDTHS.map(|width| Pool(WorkerPool::new(width)));
    let mut models = WIDTHS.map(|_| DlrmModel::seeded(cfg, MODEL_SEED));
    let mut scratches = WIDTHS.map(|_| DlrmScratch::new());
    let mut bottom = Mlp::seeded(&cfg.bottom_widths, true, MODEL_SEED);
    let mut top = Mlp::seeded(&cfg.top_widths, false, MODEL_SEED.wrapping_add(0xD1A0));

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut state = 7u64;
    for &batch in batches {
        let dense = floats(&mut state, batch * cfg.dense_dim, 1.0);
        let pooled = floats(&mut state, t * batch * d, 0.5);
        let labels: Vec<f32> = (0..batch)
            .map(|_| (splitmix(&mut state) & 1) as f32)
            .collect();

        // The shadow step, through the allocating wrappers.
        let acts_b = bottom.forward(&dense);
        let z = interaction::forward(acts_b.output(), &pooled, t, d);
        let acts_t = top.forward(&z);
        let logits = acts_t.output().to_vec();
        let (loss_val, dlogits) = loss::bce_with_logits(&logits, &labels);
        let dz = top.backward(&acts_t, &dlogits, LR);
        let mut emb_grads = vec![f32::NAN; pooled.len()];
        let d_bottom = interaction::backward(acts_b.output(), &pooled, t, d, &dz, &mut emb_grads);
        let _ = bottom.backward(&acts_b, &d_bottom, LR);

        for ((pool, model), scratch) in pools.iter().zip(&mut models).zip(&mut scratches) {
            let label = format!("width {}, batch {batch}", pool.width());
            let mut grads = vec![f32::NAN; pooled.len()];
            let out = model
                .train_step_on(pool, scratch, &dense, &pooled, &labels, LR, &mut grads)
                .expect("no task panics");
            assert_eq!(out.loss.to_bits(), loss_val.to_bits(), "loss, {label}");
            let got: Vec<f32> = scratch.logits().collect();
            assert_eq!(bits(&got), bits(&logits), "logits, {label}");
            assert_eq!(bits(&grads), bits(&emb_grads), "emb_grads, {label}");
        }

        h.fold(loss_val.to_bits());
        h.fold_all(&logits);
        h.fold_all(&emb_grads);
    }
    for (width, model) in WIDTHS.iter().zip(&models) {
        assert!(model.bit_eq(&models[0]), "parameters, width {width}");
    }

    // Tie the shadow's parameters to the models': same predictions.
    let batch = *batches.last().expect("at least one step");
    let dense = floats(&mut state, batch * cfg.dense_dim, 1.0);
    let pooled = floats(&mut state, t * batch * d, 0.5);
    let z = interaction::forward(bottom.forward(&dense).output(), &pooled, t, d);
    let shadow: Vec<f32> = top
        .forward(&z)
        .output()
        .iter()
        .map(|&z| loss::sigmoid(z))
        .collect();
    assert_eq!(bits(&models[1].predict(&dense, &pooled)), bits(&shadow));

    for layer in bottom.layers().iter().chain(top.layers()) {
        h.fold_all(layer.weights());
        h.fold_all(layer.bias());
    }
    h.0
}

/// `train_bound`'s dense model (benchmark/src/workloads.rs).
fn train_bound() -> DlrmConfig {
    DlrmConfig {
        dense_dim: 13,
        bottom_widths: vec![13, 128, 64, 64],
        top_widths: vec![interaction::output_dim(4, 64), 256, 128, 1],
        emb_dim: 64,
        num_tables: 4,
    }
}

/// No dimension a multiple of any tile a kernel might use.
fn ragged() -> DlrmConfig {
    DlrmConfig {
        dense_dim: 7,
        bottom_widths: vec![7, 19, 5],
        top_widths: vec![interaction::output_dim(3, 5), 13, 1],
        emb_dim: 5,
        num_tables: 3,
    }
}

/// `tests/golden_dense.rs`'s digests: tiny, `train_bound`, ragged.
const GOLDEN: [u64; 3] = [0x250822176a911e72, 0x94cd3b4b6592a0d6, 0x3d33998e2e9319f2];

#[test]
fn every_width_reproduces_the_golden_digests() {
    let actual = [
        digest(&DlrmConfig::tiny(), &[8; 5]),
        digest(&train_bound(), &[256; 5]),
        digest(&ragged(), &[1, 3, 5, 7, 3]),
    ];
    assert_eq!(
        actual, GOLDEN,
        "dense step moved; computed digests:\n{actual:#x?}"
    );
}

/// Batches of 1 and 3 leave some of a width-4 pool's workers without a
/// sample; 5 and 7 cut unevenly at every width; 256 is `train_bound`'s.
#[test]
fn every_width_trains_the_same_bits_at_ragged_batches() {
    for cfg in [DlrmConfig::tiny(), train_bound(), ragged()] {
        digest(&cfg, &[1, 3, 5, 7, 256]);
    }
}

/// A fanned dense step inside a supervised pipeline: \[Train\]'s scatter
/// panics (twice) after the dense step of its iteration moved the
/// weights, so the run only matches the fault-free one if the rollback
/// restores the model the fanned steps trained.
#[test]
fn supervised_run_recovers_a_train_scatter_panic_after_a_fanned_step() {
    let tc = TraceConfig {
        num_tables: 4,
        rows_per_table: 2_000,
        lookups_per_sample: 2,
        batch_size: 128,
        profile: LocalityProfile::High,
        seed: 11,
    };
    let cfg = train_bound();
    assert!(
        cfg.train_flops(tc.batch_size) >= DENSE_FAN_OUT_MIN_FLOPS,
        "the step must fan out"
    );
    let batches = TraceGenerator::new(tc).take_batches(5);
    let dim = cfg.emb_dim;
    let build = |parallelism: usize, plan: Option<FaultPlan>| {
        let tables = (0..tc.num_tables)
            .map(|t| EmbeddingTable::seeded(tc.rows_per_table as usize, dim, 40 + t as u64))
            .collect();
        let mut builder = Pipeline::builder()
            .config(PipelineConfig::functional(dim, 1_600))
            .tables(tables)
            .backend(DlrmBackend::new(&cfg, LR, 7))
            .schedule(Schedule::Sync)
            .parallelism(parallelism);
        if let Some(plan) = plan {
            builder = builder.faults(plan);
        }
        builder.build().expect("pipeline")
    };

    // The fault-free run, inline and fanned out: the same bits.
    let mut inline = build(1, None);
    inline.run(&batches).expect("run");
    let mut plain = build(2, None);
    plain.run(&batches).expect("run");
    assert!(plain.backend().model().bit_eq(inline.backend().model()));
    let plain_model = plain.backend().model().clone();
    let plain_tables = plain.into_tables();
    for (a, b) in plain_tables.iter().zip(&inline.into_tables()) {
        assert!(a.bit_eq(b), "width 2 and width 1 tables diverged");
    }

    for checkpoint_interval in [1, 4] {
        let label = format!("interval {checkpoint_interval}");
        let plan = FaultPlan::new(vec![Fault {
            iteration: 3,
            stage: "Train".to_owned(),
            shard: 1,
            kind: FaultKind::WorkerPanic,
            fires: 2,
        }]);
        let policy = RecoveryPolicy {
            checkpoint_interval,
            ..RecoveryPolicy::default()
        };
        let mut rt = build(2, Some(plan));
        let run = rt.run_supervised(&batches, policy).expect("recoverable");
        assert_eq!(run.stats.rollbacks, 2, "{label}");
        assert!(rt.backend().model().bit_eq(&plain_model), "{label}: model");
        for (a, b) in plain_tables.iter().zip(&rt.into_tables()) {
            assert!(a.bit_eq(b), "{label}: tables diverged");
        }
    }
}
