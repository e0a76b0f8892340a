//! Execution-plan equivalence suite: the declarative plan executor must be
//! observationally identical to the four hand-rolled run loops it replaced,
//! and the fusion pass must change *only* what it claims to.
//!
//! * A recorded golden (`results/plan_equivalence.golden.txt`) pins the
//!   bit pattern of `gbest` and the full kernel-launch manifest per
//!   [`UpdateStrategy`]. Regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test plan`.
//! * A proptest pins the fusion pass's contract: every profiler counter is
//!   preserved except `kernel_launches` (one launch saved per iteration),
//!   and the trajectory is bit-identical.

use fastpso_suite::fastpso::{
    Algorithm, CounterAsserts, GpuBackend, PsoBackend, PsoConfig, UpdateStrategy,
};
use fastpso_suite::functions::builtins::Sphere;
use proptest::prelude::*;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/results/plan_equivalence.golden.txt"
);

fn cfg(n: usize, d: usize, iters: usize, seed: u64) -> PsoConfig {
    PsoConfig::builder(n, d)
        .max_iter(iters)
        .seed(seed)
        .build()
        .unwrap()
}

/// One strategy's section of the golden: the raw bit pattern of the final
/// `gbest` (value and position) followed by the sorted launch manifest.
fn strategy_section(strategy: UpdateStrategy) -> String {
    let b = GpuBackend::new().strategy(strategy);
    let r = b.run(&cfg(64, 8, 6, 42), &Sphere).unwrap();
    let mut out = format!("[{strategy}]\n");
    out.push_str(&format!(
        "gbest_value_bits,{:016x}\n",
        r.best_value.to_bits()
    ));
    let pos: Vec<String> = r
        .best_position
        .iter()
        .map(|x| format!("{:08x}", x.to_bits()))
        .collect();
    out.push_str(&format!("gbest_pos_bits,{}\n", pos.join(":")));
    for (name, count) in b.profile().counts_by_name() {
        out.push_str(&format!("{strategy},{name},{count}\n"));
    }
    out
}

/// One non-PSO engine's section of the golden, same shape as
/// [`strategy_section`]: the final `gbest` bit pattern and the sorted
/// launch manifest of the SSO or GFWA plan on the same workload.
fn algorithm_section(algo: Algorithm) -> String {
    let b = GpuBackend::new().algorithm(algo);
    let r = b.run(&cfg(64, 8, 6, 42), &Sphere).unwrap();
    let mut out = format!("[{algo}]\n");
    out.push_str(&format!(
        "gbest_value_bits,{:016x}\n",
        r.best_value.to_bits()
    ));
    let pos: Vec<String> = r
        .best_position
        .iter()
        .map(|x| format!("{:08x}", x.to_bits()))
        .collect();
    out.push_str(&format!("gbest_pos_bits,{}\n", pos.join(":")));
    for (name, count) in b.profile().counts_by_name() {
        out.push_str(&format!("{algo},{name},{count}\n"));
    }
    out
}

/// The plan executor reproduces bit-identical `gbest` and a byte-identical
/// launch manifest versus the recorded golden, for every strategy and for
/// both non-PSO engines. This is the refactor's safety net: any silent
/// change to trajectory or launch structure — a reordered node, a renamed
/// kernel, an extra launch — shows up as a golden diff.
#[test]
fn executor_matches_recorded_golden_for_every_strategy() {
    let mut actual = String::new();
    for strategy in UpdateStrategy::ALL {
        actual.push_str(&strategy_section(strategy));
    }
    for algo in [Algorithm::Sso, Algorithm::Gfwa] {
        actual.push_str(&algorithm_section(algo));
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN)
        .expect("golden missing; regenerate with UPDATE_GOLDEN=1 cargo test --test plan");
    assert_eq!(
        actual, expected,
        "plan executor diverged from the recorded golden \
         (if intentional: UPDATE_GOLDEN=1 cargo test --test plan)"
    );
}

/// Fusion's whole contract in one check, under arbitrary configurations:
/// bit-identical trajectory, every profiler counter preserved except
/// `kernel_launches`, and exactly one launch saved per iteration (the
/// velocity/position pair becomes one fused kernel).
fn assert_fusion_preserves_counters(strategy: UpdateStrategy, c: &PsoConfig) {
    let split_b = GpuBackend::new().strategy(strategy).fused(false);
    let split_r = split_b.run(c, &Sphere).unwrap();
    let split = CounterAsserts::capture(split_b.device());

    let fused_b = GpuBackend::new().strategy(strategy).fused(true);
    let fused_r = fused_b.run(c, &Sphere).unwrap();
    let fused = CounterAsserts::capture(fused_b.device());

    CounterAsserts::assert_bit_identical_gbest(&split_r, &fused_r);

    let mut sc = split.counters();
    let mut fc = fused.counters();
    assert_eq!(
        sc.kernel_launches,
        fc.kernel_launches + c.max_iter as u64,
        "{strategy:?}: fusion must save exactly one launch per iteration"
    );
    sc.kernel_launches = 0;
    fc.kernel_launches = 0;
    assert_eq!(
        sc, fc,
        "{strategy:?}: fusion must preserve every counter except launches"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn fusion_preserves_all_counters_except_launch_count(
        n in 2usize..40,
        d in 1usize..12,
        iters in 2usize..10,
        seed in any::<u64>(),
    ) {
        let c = cfg(n, d, iters, seed);
        // The pass rewrites only the untiled element-wise strategies.
        assert_fusion_preserves_counters(UpdateStrategy::GlobalMem, &c);
        assert_fusion_preserves_counters(UpdateStrategy::ForLoop, &c);
    }
}

/// For the tiled strategies the fusion pass is an identity: requesting it
/// changes nothing at all — not even the launch count.
#[test]
fn fusion_is_identity_for_tiled_strategies() {
    let c = cfg(48, 16, 5, 7);
    for strategy in [UpdateStrategy::SharedMem, UpdateStrategy::TensorCore] {
        let plain_b = GpuBackend::new().strategy(strategy);
        let plain_r = plain_b.run(&c, &Sphere).unwrap();
        let plain = CounterAsserts::capture(plain_b.device());

        let fused_b = GpuBackend::new().strategy(strategy).fused(true);
        assert!(
            !fused_b.plan(&c).is_fused(),
            "{strategy:?}: the pass must decline tiled kernels"
        );
        let fused_r = fused_b.run(&c, &Sphere).unwrap();
        let fused = CounterAsserts::capture(fused_b.device());

        CounterAsserts::assert_bit_identical_gbest(&plain_r, &fused_r);
        assert_eq!(plain.counters(), fused.counters(), "{strategy:?}");
    }
}
