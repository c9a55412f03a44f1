//! Golden pins of the training loop: the paper's network trained on a seeded
//! synthetic dataset must reproduce, bit for bit, the weights and the
//! validation-loss curve recorded when each pin was set — one pin for the
//! library default's loss (plain BCE), one for the `paper` harness's
//! (`WeightedBce { pos_weight: 20.0 }`).
//!
//! Every product kernel, loss and forward pass the loop runs feeds these
//! numbers, so a change that reorders one floating-point addition anywhere in
//! training moves the hash.  A deliberate change to the training arithmetic
//! re-records the constants and says so.

use elf_nn::{model_to_text, train, Dataset, Loss, Mlp, TrainConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a hash of `model_to_text` after training.
const MODEL_TEXT_FNV1A: u64 = 0x119e_1eac_193b_6d31;

/// `f32::to_bits` of every epoch's validation loss.
const VALIDATION_LOSS_BITS: &[u32] = &[
    0x3df2_34bd,
    0x3d99_9525,
    0x3d97_3e93,
    0x3e2b_2fff,
    0x3d90_d8c5,
    0x3d6d_f729,
    0x3de6_5546,
    0x3df8_6bb0,
    0x3e13_e190,
    0x3e32_b41a,
    0x3d4f_9fb5,
    0x3d5c_1674,
    0x3d6f_d127,
    0x3d5b_0d66,
    0x3d4c_c92e,
    0x3d98_b143,
    0x3da2_8502,
    0x3d3c_1093,
    0x3da2_3085,
    0x3dbd_1409,
    0x3d83_2acc,
    0x3d35_effe,
    0x3d9d_460f,
    0x3def_4fc6,
    0x3de5_972b,
    0x3dec_e81d,
    0x3dcb_15b8,
    0x3e09_d07e,
    0x3e14_5566,
    0x3e0a_4526,
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// 3 000 rows of six features on mixed scales; about 2 % are positive.
fn synthetic_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut data = Dataset::new();
    for _ in 0..3000 {
        let x: Vec<f32> = (0..6)
            .map(|k| rng.gen_range(0.0..1.0f32) * [1.0, 4.0, 16.0, 2.0, 1.0, 8.0][k])
            .collect();
        let positive = x[0] < 0.2 && x[4] > 0.9;
        data.push(x, positive);
    }
    data
}

#[test]
fn default_training_reproduces_the_recorded_model() {
    let data = synthetic_dataset();
    let positives = data.class_counts().1;
    assert!((30..=90).contains(&positives), "{positives} positives");
    let mut model = Mlp::paper_architecture(7);
    let report = train(&mut model, &data, &TrainConfig::default());
    let hash = fnv1a(model_to_text(&model).as_bytes());
    let losses: Vec<u32> = report
        .validation_losses
        .iter()
        .map(|l| l.to_bits())
        .collect();
    assert_eq!(
        (hash, losses.as_slice()),
        (MODEL_TEXT_FNV1A, VALIDATION_LOSS_BITS),
        "training moved: hash {hash:#018x}, validation loss bits {losses:#010x?}"
    );
}

/// FNV-1a hash of `model_to_text` after training with the `paper` harness's
/// loss, `WeightedBce { pos_weight: 20.0 }`.
const WEIGHTED_MODEL_TEXT_FNV1A: u64 = 0x1fa6_6a69_5abd_ac99;

/// `f32::to_bits` of every epoch's validation loss under that loss.
const WEIGHTED_VALIDATION_LOSS_BITS: &[u32] = &[
    0x3f99_cca3,
    0x3f94_8e7e,
    0x3e82_627d,
    0x3e56_a2c3,
    0x3ed3_19b9,
    0x3eaf_dba0,
    0x3eb2_f7b7,
    0x3e9d_e5f4,
    0x3ebd_d7d3,
    0x3edf_7224,
    0x3e6e_090a,
    0x3e59_6bec,
    0x3efd_bab3,
    0x3e6d_3203,
];

#[test]
fn weighted_training_reproduces_the_recorded_model() {
    let data = synthetic_dataset();
    let mut model = Mlp::paper_architecture(7);
    let config = TrainConfig {
        loss: Loss::WeightedBce { pos_weight: 20.0 },
        ..TrainConfig::default()
    };
    let report = train(&mut model, &data, &config);
    let hash = fnv1a(model_to_text(&model).as_bytes());
    let losses: Vec<u32> = report
        .validation_losses
        .iter()
        .map(|l| l.to_bits())
        .collect();
    assert_eq!(
        (hash, losses.as_slice()),
        (WEIGHTED_MODEL_TEXT_FNV1A, WEIGHTED_VALIDATION_LOSS_BITS),
        "training moved: hash {hash:#018x}, validation loss bits {losses:#010x?}"
    );
}
