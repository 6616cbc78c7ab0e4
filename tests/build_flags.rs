//! The build this test binary came from is the build the suites beside it
//! tested. On x86-64 that must be the 8-lane one: the dense kernels are
//! tiled for sixteen AVX registers and run at half the speed without them
//! (bit for bit the same — `tests/golden_dense.rs` passes either way — so
//! nothing else would notice a dropped flag).

#[test]
#[cfg(target_arch = "x86_64")]
fn x86_64_builds_target_avx() {
    if !cfg!(target_feature = "avx") {
        panic!(
            "built without AVX: `.cargo/config.toml` sets `-C target-feature=+avx` for x86-64, \
             but a `RUSTFLAGS` (or `CARGO_ENCODED_RUSTFLAGS`) environment variable — even an \
             empty one — takes precedence over the config file and drops it, and cargo only \
             finds the file from the repo root or below. Add the flag to the variable or \
             unset it; CI's 4-lane step strips it on purpose and does not run this test."
        );
    }
}
