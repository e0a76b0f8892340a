//! Property-based integration tests (proptest) over the core invariants:
//! backend equivalence under arbitrary configurations, PSO state
//! invariants, RNG stream properties and f16 rounding laws.

use fastpso_suite::fastpso::gpu::kernels::{POSITION_FLOPS_PER_ELEM, VELOCITY_FLOPS_PER_ELEM};
use fastpso_suite::fastpso::{GpuBackend, PsoBackend, PsoConfig, SeqBackend, UpdateStrategy};
use fastpso_suite::functions::builtins::{Rastrigin, Sphere};
use fastpso_suite::functions::Objective;
use fastpso_suite::gpu_sim::{f16_bits_to_f32, f32_to_f16_bits, through_f16, Device, Phase};
use fastpso_suite::prng::Philox;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sequential and GPU backends agree bitwise for arbitrary
    /// (small) configurations, seeds and coefficients.
    #[test]
    fn seq_and_gpu_agree_for_arbitrary_configs(
        n in 2usize..40,
        d in 1usize..12,
        iters in 1usize..25,
        seed in any::<u64>(),
        omega in 0.1f32..1.2,
        c in 0.5f32..2.5,
    ) {
        let cfg = PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(seed)
            .omega(omega)
            .c1(c)
            .c2(c)
            .build()
            .unwrap();
        let a = SeqBackend.run(&cfg, &Sphere).unwrap();
        let b = GpuBackend::new().run(&cfg, &Sphere).unwrap();
        prop_assert_eq!(a.best_value, b.best_value);
        prop_assert_eq!(a.best_position, b.best_position);
    }

    /// The gbest history is monotone non-increasing for any run, and the
    /// final best equals the last history entry.
    #[test]
    fn gbest_is_monotone_for_arbitrary_runs(
        n in 2usize..48,
        d in 1usize..10,
        iters in 2usize..40,
        seed in any::<u64>(),
    ) {
        let cfg = PsoConfig::builder(n, d)
            .max_iter(iters)
            .seed(seed)
            .record_history(true)
            .build()
            .unwrap();
        let r = SeqBackend.run(&cfg, &Rastrigin).unwrap();
        prop_assert_eq!(r.history_is_monotone(), Some(true));
        let h = r.history.unwrap();
        prop_assert_eq!(*h.last().unwrap() as f64, r.best_value);
        // gbest can never beat the mathematical optimum.
        prop_assert!(r.best_value >= Rastrigin.optimum(d).unwrap() - 1e-3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Philox streams: same (index, domain) always reproduces; distinct
    /// domains decorrelate; outputs lie in [0, 1).
    #[test]
    fn philox_stream_properties(seed in any::<u64>(), idx in any::<u64>(), domain in any::<u64>()) {
        let p = Philox::new(seed);
        let u = p.uniform_at(idx, domain);
        prop_assert!((0.0..1.0).contains(&u));
        prop_assert_eq!(u, Philox::new(seed).uniform_at(idx, domain));
        let other = p.uniform_at(idx, domain.wrapping_add(1));
        // Equality is possible only by 24-bit collision; tolerate but flag
        // structural equality of whole blocks.
        let same_block: Vec<u32> = (0..8).map(|i| p.u32_at(idx.wrapping_add(i), domain)).collect();
        let next_block: Vec<u32> = (0..8).map(|i| p.u32_at(idx.wrapping_add(i), domain.wrapping_add(1))).collect();
        prop_assert_ne!(same_block, next_block);
        let _ = other;
    }

    /// f16 roundtrip laws: idempotent, monotone, sign-preserving, and
    /// within half-ULP relative error for normal values.
    #[test]
    fn f16_rounding_laws(x in -65000.0f32..65000.0) {
        let r = through_f16(x);
        // Idempotence: rounding twice is rounding once.
        prop_assert_eq!(through_f16(r), r);
        // Sign preservation.
        prop_assert_eq!(r.is_sign_negative(), x.is_sign_negative());
        // Bounded relative error for values in the normal f16 range.
        if x.abs() > 6.2e-5 {
            let rel = ((r - x) / x).abs();
            prop_assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}, r={r}, rel={rel}");
        }
        // Bits roundtrip exactly.
        let bits = f32_to_f16_bits(x);
        prop_assert_eq!(f32_to_f16_bits(f16_bits_to_f32(bits)), bits);
    }

    /// f16 rounding is monotone: x <= y implies round(x) <= round(y).
    #[test]
    fn f16_rounding_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(through_f16(lo) <= through_f16(hi));
    }

    /// The device argmin reduction matches a sequential scan for arbitrary
    /// inputs, including duplicated minima.
    #[test]
    fn reduction_matches_sequential_scan(values in prop::collection::vec(-1.0e6f32..1.0e6, 1..300)) {
        let dev = Device::v100();
        let r = dev.reduce_min_index(Phase::GBest, &values).unwrap();
        let (mut bi, mut bv) = (0usize, values[0]);
        for (i, &v) in values.iter().enumerate().skip(1) {
            if v < bv {
                bi = i;
                bv = v;
            }
        }
        prop_assert_eq!(r.index, bi);
        prop_assert_eq!(r.value, bv);
    }

    /// Profiler-observed swarm-update work scales *linearly* in `n·d`:
    /// the per-element FLOPs and DRAM bytes of the velocity and position
    /// kernels are constants, independent of the swarm shape, for every
    /// update strategy — there is no padding or super-linear term hiding
    /// in the modeled cost.
    #[test]
    fn swarm_update_work_is_linear_in_problem_size(
        n1 in 2usize..48, d1 in 1usize..12,
        n2 in 2usize..48, d2 in 1usize..12,
        strat_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let strategy = [
            UpdateStrategy::GlobalMem,
            UpdateStrategy::SharedMem,
            UpdateStrategy::TensorCore,
            UpdateStrategy::ForLoop,
        ][strat_idx];
        // Per-elem (flops+tensor_flops, dram_read, dram_write) of the single
        // velocity and position launch of a 1-iteration run.
        let quotients = |n: usize, d: usize| {
            let cfg = PsoConfig::builder(n, d).max_iter(1).seed(seed).build().unwrap();
            let b = GpuBackend::new().strategy(strategy);
            b.run(&cfg, &Sphere).unwrap();
            let log = b.profile();
            let elems = (n * d) as u64;
            let per_elem = |prefix: &str| {
                let k = log
                    .kernels
                    .iter()
                    .find(|k| k.name.starts_with(prefix))
                    .unwrap_or_else(|| panic!("no `{prefix}*` record for {strategy:?}"));
                // Element-wise strategies launch one thread per matrix
                // element; the ForLoop baseline one per particle row.
                if strategy == UpdateStrategy::ForLoop {
                    assert_eq!(k.threads, n as u64, "{}: one thread per particle", k.name);
                } else {
                    assert_eq!(k.threads, elems, "{}: one thread per matrix element", k.name);
                }
                for v in [k.flops + k.tensor_flops, k.dram_read_bytes, k.dram_write_bytes] {
                    assert_eq!(v % elems, 0, "{}: cost not a multiple of n·d", k.name);
                }
                [
                    (k.flops + k.tensor_flops) / elems,
                    k.dram_read_bytes / elems,
                    k.dram_write_bytes / elems,
                ]
            };
            (per_elem("velocity_update"), per_elem("position_update"))
        };
        let (vel1, pos1) = quotients(n1, d1);
        let (vel2, pos2) = quotients(n2, d2);
        prop_assert_eq!(vel1, vel2, "velocity per-elem cost must not depend on (n, d)");
        prop_assert_eq!(pos1, pos2, "position per-elem cost must not depend on (n, d)");
        prop_assert_eq!(vel1[0], VELOCITY_FLOPS_PER_ELEM);
        prop_assert_eq!(pos1[0], POSITION_FLOPS_PER_ELEM);
    }

    /// The caching pool never hands two live buffers the same backing.
    #[test]
    fn pool_never_aliases_live_buffers(sizes in prop::collection::vec(1usize..2000, 2..12)) {
        let dev = Device::v100();
        let buffers: Vec<_> = sizes.iter().map(|&s| dev.alloc::<f32>(s).unwrap()).collect();
        let mut ptrs: Vec<*const f32> = buffers.iter().map(|b| b.as_slice().as_ptr()).collect();
        ptrs.sort();
        ptrs.dedup();
        prop_assert_eq!(ptrs.len(), buffers.len());
    }
}

proptest! {
    /// `Display` → `FromStr` round-trips every `UpdateStrategy` variant,
    /// and every documented alias parses to its variant under arbitrary
    /// casing. The accepted alias table lives in the `FromStr` rustdoc.
    #[test]
    fn update_strategy_display_fromstr_round_trips(
        idx in 0usize..5,
        alias_idx in 0usize..4,
        caps in prop::collection::vec(any::<bool>(), 12..13),
    ) {
        let strategy = UpdateStrategy::ALL[idx];
        let printed = strategy.to_string();
        prop_assert_eq!(printed.parse::<UpdateStrategy>().unwrap(), strategy);

        let aliases: &[&str] = match strategy {
            UpdateStrategy::GlobalMem => &["global", "globalmem", "global-mem"],
            UpdateStrategy::SharedMem => &["smem", "shared", "sharedmem", "shared-mem"],
            UpdateStrategy::TensorCore => &["tensor", "tensorcore", "tensor-core", "wmma"],
            UpdateStrategy::ForLoop => &["forloop", "for-loop", "naive"],
            UpdateStrategy::LowComplexity => &["lowcomp", "lowcomplexity", "low-complexity"],
        };
        let alias = aliases[alias_idx % aliases.len()];
        // Parsing is case-insensitive: flip an arbitrary subset to uppercase.
        let mangled: String = alias
            .chars()
            .zip(caps.iter().cycle())
            .map(|(ch, &up)| if up { ch.to_ascii_uppercase() } else { ch })
            .collect();
        prop_assert_eq!(mangled.parse::<UpdateStrategy>().unwrap(), strategy);
    }

    /// `Display` → `FromStr` round-trips every `Topology` — `global`,
    /// `ring_lbest:<k>` and the island grammar
    /// `islands:<m>:<kind>:<every_k>:<elites>` — and malformed or
    /// unknown-key specs are rejected with a diagnostic naming the
    /// grammar. This is the contract the `--topology` CLI flags on
    /// `algo_compare` and `serve_bench` rely on.
    #[test]
    fn topology_display_fromstr_round_trips(
        which in 0usize..3,
        k in 1usize..32,
        m in 2usize..9,
        kind_idx in 0usize..3,
        every_k in 1usize..100,
        elites in 1usize..6,
    ) {
        use fastpso_suite::fastpso::{Migration, MigrationKind, Topology};
        let kind = [MigrationKind::Ring, MigrationKind::Star, MigrationKind::Random][kind_idx];
        let t = match which {
            0 => Topology::Global,
            1 => Topology::Ring { k },
            _ => Topology::Islands {
                islands: m,
                migration: Migration { kind, every_k, elites },
            },
        };
        let printed = t.to_string();
        prop_assert_eq!(printed.parse::<Topology>().unwrap(), t);
        // The migration kind round-trips on its own too.
        prop_assert_eq!(kind.to_string().parse::<MigrationKind>().unwrap(), kind);
        // Unknown keys and truncated island specs never parse, and the
        // error names the accepted grammar.
        for bad in [
            "archipelago",
            "islands",
            "islands:4",
            "islands:4:ring",
            "islands:4:ring:5",
            "islands:4:sideways:5:2",
            "islands:x:ring:5:2",
        ] {
            let err = bad.parse::<Topology>().unwrap_err();
            prop_assert!(
                err.contains("islands:<m>:<ring|star|random>:<every_k>:<elites>")
                    || err.contains("migration kind"),
                "{bad}: {err}"
            );
        }
    }

    /// `Display` → `FromStr` round-trips every `Algorithm` under
    /// arbitrary casing and surrounding whitespace, and unknown keys are
    /// rejected with a diagnostic naming the accepted set.
    #[test]
    fn algorithm_display_fromstr_round_trips(
        idx in 0usize..3,
        caps in prop::collection::vec(any::<bool>(), 4..5),
        pad in 0usize..3,
    ) {
        use fastpso_suite::fastpso::Algorithm;
        let algo = Algorithm::ALL[idx];
        let printed = algo.to_string();
        prop_assert_eq!(printed.parse::<Algorithm>().unwrap(), algo);
        // Case-insensitive, whitespace-trimming parse.
        let mangled: String = printed
            .chars()
            .zip(caps.iter().cycle())
            .map(|(ch, &up)| if up { ch.to_ascii_uppercase() } else { ch })
            .collect();
        let padded = format!("{}{}{}", " ".repeat(pad), mangled, " ".repeat(pad));
        prop_assert_eq!(padded.parse::<Algorithm>().unwrap(), algo);
    }

    /// Strings outside {pso, sso, gfwa} never parse as an `Algorithm`.
    #[test]
    fn algorithm_rejects_unknown_keys(
        chars in prop::collection::vec(0u8..27, 1..12),
    ) {
        use fastpso_suite::fastpso::Algorithm;
        let s: String = chars
            .iter()
            .map(|&c| match c {
                0..=25 => (b'a' + c) as char,
                _ => '-',
            })
            .collect();
        prop_assume!(!["pso", "sso", "gfwa"].contains(&s.as_str()));
        let err = s.parse::<Algorithm>().unwrap_err();
        prop_assert!(err.contains("unknown algorithm"), "{err}");
        prop_assert!(err.contains("pso, sso, gfwa"), "{err}");
    }

    /// Strings outside the alias table never parse.
    #[test]
    fn update_strategy_rejects_unknown_names(
        chars in prop::collection::vec(0u8..38, 1..16),
    ) {
        let s: String = chars
            .iter()
            .map(|&c| match c {
                0..=25 => (b'a' + c) as char,
                26..=35 => (b'0' + c - 26) as char,
                36 => '_',
                _ => '-',
            })
            .collect();
        let known = [
            "global", "globalmem", "global-mem",
            "smem", "shared", "sharedmem", "shared-mem",
            "tensor", "tensorcore", "tensor-core", "wmma",
            "forloop", "for-loop", "naive",
            "lowcomp", "lowcomplexity", "low-complexity",
        ];
        prop_assume!(!known.contains(&s.as_str()));
        prop_assert!(s.parse::<UpdateStrategy>().is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The equal-budget search (galloping, then bisection) returns exactly
    /// what a linear scan from one iteration returns: the largest count
    /// whose full-run price fits the budget, or 1 when none does. Budgets
    /// are a random fraction or multiple of a PSO reference run under the
    /// same topology, so some fall below one iteration's price.
    #[test]
    fn budget_search_matches_a_linear_scan(
        // Packs algorithm (3) × topology (3) × particles 16..=64 (4) ×
        // dimension 2..=26 (4).
        packed in 0usize..144,
        reference_iters in 1u64..200,
        scale in 0.0f64..2.0,
    ) {
        use fastpso_suite::fastpso::stats::{iters_within_budget, modeled_s};
        use fastpso_suite::fastpso::{Algorithm, JobShape, Topology};
        let topology = ["global", "ring_lbest:2", "islands:4:random:5:2"][packed / 3 % 3]
            .parse::<Topology>()
            .unwrap();
        let shape = |algo: Algorithm, iterations: u64| {
            let (n, d) = (16 + 16 * (packed / 9 % 4), 2 + 8 * (packed / 36));
            JobShape::new(n as u64, d as u64, iterations, UpdateStrategy::GlobalMem)
                .algorithm(algo)
                .topology(topology)
        };
        let budget = modeled_s(&shape(Algorithm::Pso, reference_iters)) * scale;
        let algo = Algorithm::ALL[packed % 3];
        let mut scan = 1;
        while modeled_s(&shape(algo, scan + 1)) <= budget {
            scan += 1;
        }
        prop_assert_eq!(iters_within_budget(&shape(algo, 1), budget), scan);
    }
}
