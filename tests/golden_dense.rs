//! Golden dense-step test: the bits `DlrmModel` trains to are part of the
//! repo's contract — every cross-system equality suite compares tables
//! that were updated with its `emb_grads`. The digests below were recorded
//! at the commit *before* the dense forward was register-tiled and the
//! step's per-call `Vec`s moved into `DlrmScratch`; any rewrite of the
//! dense kernels must reproduce them bit for bit.
//!
//! Each digest folds, for five steps, the loss bits, the logits and
//! `emb_grads`, then every weight and bias of both MLPs. `DlrmModel` keeps
//! its MLPs private, so the parameters come from a *shadow*: the same two
//! seeded `Mlp`s driven through the public allocating wrappers
//! (`Mlp::forward`/`backward`, `interaction::forward`/`backward`,
//! `loss::bce_with_logits`). The shadow, `train_step` (fresh scratch) and
//! `train_step_with` (one scratch reused across steps and batch sizes)
//! must agree on every bit of every step, and the model's `predict` after
//! the last step must equal the shadow's — which ties the digested
//! parameters to the model's.
//!
//! Inputs come from an integer-only generator; the loss itself goes
//! through the host's `expf`/`logf`, as it does in every other suite.

use scratchpipe_repro::dlrm::{interaction, loss, DlrmConfig, DlrmModel, DlrmScratch, Mlp};

const LR: f32 = 0.05;
const MODEL_SEED: u64 = 20220618;

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

/// Trains `cfg` for one step per entry of `batches` and digests it.
fn digest(cfg: &DlrmConfig, batches: &[usize]) -> u64 {
    let (t, d) = (cfg.num_tables, cfg.emb_dim);
    let mut fresh = DlrmModel::seeded(cfg, MODEL_SEED);
    let mut reused = fresh.clone();
    let mut scratch = DlrmScratch::new();
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

        // The model, with a fresh scratch and with a reused (dirty) one.
        let mut grads_fresh = vec![f32::NAN; pooled.len()];
        let mut grads_reused = vec![f32::NAN; pooled.len()];
        let out = fresh.train_step(&dense, &pooled, &labels, LR, &mut grads_fresh);
        let out_reused = reused.train_step_with(
            &mut scratch,
            &dense,
            &pooled,
            &labels,
            LR,
            &mut grads_reused,
        );
        assert_eq!(
            out.loss.to_bits(),
            loss_val.to_bits(),
            "loss, batch {batch}"
        );
        assert_eq!(out_reused.loss.to_bits(), loss_val.to_bits());
        assert_eq!(bits(&out.logits), bits(&logits), "logits, batch {batch}");
        assert_eq!(bits(&grads_fresh), bits(&emb_grads), "grads, batch {batch}");
        assert_eq!(bits(&grads_reused), bits(&emb_grads));

        h.fold(loss_val.to_bits());
        h.fold_all(&logits);
        h.fold_all(&emb_grads);
    }
    assert!(fresh.bit_eq(&reused));

    // Tie the shadow's parameters to the model's: same predictions.
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
    assert_eq!(bits(&fresh.predict(&dense, &pooled)), bits(&shadow));

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

#[test]
fn dense_steps_match_the_recorded_digests() {
    let actual = [
        digest(&DlrmConfig::tiny(), &[8; 5]),
        digest(&train_bound(), &[256; 5]),
        // One scratch across growing and shrinking batches.
        digest(&ragged(), &[1, 3, 5, 7, 3]),
    ];
    assert_eq!(
        actual, GOLDEN,
        "dense step moved; computed digests:\n{actual:#x?}"
    );
}

/// tiny, `train_bound`, ragged — recorded at the parent commit, debug and
/// release builds agreeing.
const GOLDEN: [u64; 3] = [0x250822176a911e72, 0x94cd3b4b6592a0d6, 0x3d33998e2e9319f2];
