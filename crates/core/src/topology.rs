//! Swarm communication topologies.
//!
//! The paper's FastPSO uses the *global-best* (star) topology: every
//! particle is attracted toward the single swarm best. A production PSO
//! library also offers *local-best* topologies, which trade convergence
//! speed for resistance to premature convergence — the paper's §6 names
//! richer swarm structures as future work, and the multi-GPU
//! particle-split strategy is itself a coarse local-best scheme. The ring
//! topology here is the classic `lbest` variant: particle `i`'s social
//! attractor is the best `pbest` within `k` neighbours on each side of a
//! circular arrangement.
//!
//! The third topology is the *island model*: the swarm is partitioned into
//! contiguous blocks of particles ("islands") that evolve independently —
//! each particle's social attractor is its island's best `pbest` — and
//! periodically exchange their elite members along a [`MigrationKind`]
//! pattern. Islands are lowered into algorithm-agnostic plan nodes
//! ([`crate::plan::PlanOp::Migrate`] / [`crate::plan::PlanOp::EliteSelect`]),
//! so every engine (PSO, SSO, GFWA) inherits them without per-engine code.
//!
//! Neighborhood and island bests are computed with the same deterministic
//! tie rule as the global reduction (lowest index wins), so runs remain
//! bit-identical across backends.

use crate::plan::partition;
use crate::swarm::domains;
use fastpso_prng::Philox;
use std::fmt;
use std::str::FromStr;

/// How elites travel between islands when a migration fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MigrationKind {
    /// Directed ring: island `g` donates its elites to island `(g+1) % m`.
    Ring,
    /// Hub-and-spoke exchange through island 0: the hub broadcasts its
    /// elites to every spoke, and receives the elites of the best spoke
    /// (the spoke whose best `pbest` is lowest; ties resolve to the
    /// lowest island index).
    Star,
    /// Every island receives from one uniformly drawn *other* island. The
    /// draw is a counter-based Philox stream addressed by
    /// `(seed, migrate-domain(t), island)`, so it is deterministic per
    /// island and iteration and survives checkpoint/resume bit-exactly.
    Random,
}

impl fmt::Display for MigrationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MigrationKind::Ring => "ring",
            MigrationKind::Star => "star",
            MigrationKind::Random => "random",
        })
    }
}

impl FromStr for MigrationKind {
    type Err = String;

    /// Accepts `ring`, `star` or `random` (case-insensitive, trimmed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ring" => Ok(MigrationKind::Ring),
            "star" => Ok(MigrationKind::Star),
            "random" => Ok(MigrationKind::Random),
            other => Err(format!(
                "unknown migration kind {other:?} (expected one of: ring, star, random)"
            )),
        }
    }
}

/// Migration schedule of an island topology: which pattern elites follow,
/// how often they move, and how many move at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Migration {
    /// Exchange pattern between islands.
    pub kind: MigrationKind,
    /// A migration fires after every `every_k`-th iteration.
    pub every_k: usize,
    /// Number of elite particles each donor sends per migration; they
    /// replace the receiving island's `elites` worst members.
    pub elites: usize,
}

/// Swarm communication structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Topology {
    /// Star / global best (the paper's FastPSO).
    #[default]
    Global,
    /// Ring with `k` neighbours on each side (`lbest`); `k = 0` degrades
    /// to pure cognition (each particle follows only its own best).
    Ring {
        /// Neighbours on each side.
        k: usize,
    },
    /// Island model: the swarm is split into `islands` contiguous blocks
    /// that evolve under their own island-best attractor and exchange
    /// elites on the `migration` schedule.
    Islands {
        /// Number of islands the swarm is partitioned into.
        islands: usize,
        /// Elite-exchange schedule.
        migration: Migration,
    },
}

impl Topology {
    /// Number of particles each particle communicates with (including
    /// itself) in a swarm of `n`. For islands this is the size of the
    /// largest island.
    pub fn neighborhood_size(&self, n: usize) -> usize {
        match self {
            Topology::Global => n,
            Topology::Ring { k } => (2 * k + 1).min(n),
            Topology::Islands { islands, .. } => {
                let m = (*islands).clamp(1, n.max(1));
                n.div_ceil(m)
            }
        }
    }
}

impl fmt::Display for Topology {
    /// Canonical grammar (round-trips through [`FromStr`]):
    /// `global` | `ring_lbest:<k>` |
    /// `islands:<m>:<ring|star|random>:<every_k>:<elites>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Global => f.write_str("global"),
            Topology::Ring { k } => write!(f, "ring_lbest:{k}"),
            Topology::Islands { islands, migration } => write!(
                f,
                "islands:{islands}:{}:{}:{}",
                migration.kind, migration.every_k, migration.elites
            ),
        }
    }
}

impl FromStr for Topology {
    type Err = String;

    /// Parses the canonical topology grammar, case-insensitively and with
    /// surrounding whitespace ignored:
    ///
    /// * `global` — single swarm, global best;
    /// * `ring_lbest:<k>` — ring `lbest` with `k` neighbours per side;
    /// * `islands:<m>:<kind>:<every_k>:<elites>` — `m` islands exchanging
    ///   `elites` members along `<kind>` (`ring`, `star` or `random`)
    ///   after every `every_k`-th iteration.
    ///
    /// Unknown keys and malformed parameters are rejected with a
    /// diagnostic naming the accepted grammar.
    ///
    /// ```
    /// use fastpso::Topology;
    /// let t: Topology = "islands:4:ring:10:2".parse().unwrap();
    /// assert_eq!(t.to_string().parse::<Topology>().unwrap(), t);
    /// assert!("islands:4:coconut:10:2".parse::<Topology>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm = s.trim().to_ascii_lowercase();
        let grammar =
            "expected global, ring_lbest:<k>, or islands:<m>:<ring|star|random>:<every_k>:<elites>";
        if norm == "global" {
            return Ok(Topology::Global);
        }
        if let Some(k) = norm.strip_prefix("ring_lbest:") {
            let k: usize = k
                .parse()
                .map_err(|_| format!("bad ring half-width {k:?} ({grammar})"))?;
            return Ok(Topology::Ring { k });
        }
        if let Some(rest) = norm.strip_prefix("islands:") {
            let parts: Vec<&str> = rest.split(':').collect();
            if parts.len() != 4 {
                return Err(format!(
                    "islands topology takes 4 parameters, got {} ({grammar})",
                    parts.len()
                ));
            }
            let num = |what: &str, v: &str| -> Result<usize, String> {
                v.parse()
                    .map_err(|_| format!("bad island {what} {v:?} ({grammar})"))
            };
            return Ok(Topology::Islands {
                islands: num("count", parts[0])?,
                migration: Migration {
                    kind: parts[1].parse()?,
                    every_k: num("period", parts[2])?,
                    elites: num("elite count", parts[3])?,
                },
            });
        }
        Err(format!("unknown topology {s:?} ({grammar})"))
    }
}

/// Compute each particle's neighborhood-best index under a ring topology.
///
/// `out[i]` is the index of the best `pbest` among
/// `{i-k, ..., i, ..., i+k}` (circular). Ties resolve to the smallest
/// index in *absolute* terms, matching a deterministic scan.
pub fn ring_neighborhood_best(pbest_err: &[f32], k: usize, out: &mut [usize]) {
    let n = pbest_err.len();
    assert_eq!(out.len(), n, "output length");
    if n == 0 {
        return;
    }
    let k = k.min(n / 2);
    for (i, slot) in out.iter_mut().enumerate() {
        let mut best_idx = i;
        let mut best_val = pbest_err[i];
        for off in 1..=k {
            for j in [(i + n - off) % n, (i + off) % n] {
                let v = pbest_err[j];
                if v < best_val || (v == best_val && j < best_idx) {
                    best_idx = j;
                    best_val = v;
                }
            }
        }
        *slot = best_idx;
    }
}

/// Compute each particle's island-best attractor index: `out[i]` is the
/// index of the lowest `pbest` within particle `i`'s island (ties resolve
/// to the lowest index, the global reduction's tie rule). Islands are the
/// contiguous row blocks of `plan::partition`: the remainder spreads over the
/// leading islands.
pub fn island_attractors(pbest_err: &[f32], islands: usize, out: &mut [usize]) {
    let n = pbest_err.len();
    assert_eq!(out.len(), n, "output length");
    if n == 0 {
        return;
    }
    for (start, rows) in partition(n, islands.clamp(1, n)) {
        let end = start + rows;
        let mut best_idx = start;
        let mut best_val = pbest_err[start];
        for (j, &v) in pbest_err.iter().enumerate().take(end).skip(start + 1) {
            if v < best_val {
                best_idx = j;
                best_val = v;
            }
        }
        for slot in &mut out[start..end] {
            *slot = best_idx;
        }
    }
}

/// The `count` best rows of `[start, end)` by ascending `(pbest, index)`.
fn best_rows(pbest_err: &[f32], start: usize, end: usize, count: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (start..end).collect();
    rows.sort_by(|&a, &b| {
        pbest_err[a]
            .partial_cmp(&pbest_err[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    rows.truncate(count);
    rows
}

/// The `count` worst rows of `[start, end)` by descending `pbest`; ties
/// resolve to the *higher* index, so low-index elites survive ties.
fn worst_rows(pbest_err: &[f32], start: usize, end: usize, count: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (start..end).collect();
    rows.sort_by(|&a, &b| {
        pbest_err[b]
            .partial_cmp(&pbest_err[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.cmp(&a))
    });
    rows.truncate(count);
    rows
}

/// Plan one elite migration: the `(source_row, destination_row)` copies to
/// apply when a migration fires at iteration `t`. The `i`-th best row of
/// each donor island replaces the `i`-th worst row of its receiver; every
/// island receives from exactly one donor per migration, so destinations
/// never collide. All sources are read from the *pre-migration* state —
/// appliers must snapshot source rows before writing.
///
/// The pairing is a pure function of `(pbest_err, islands, migration, t,
/// seed)`: the `Random` pattern draws its donors from the dedicated
/// Philox migration domain, addressed per island, so replays and
/// post-restore resumes reproduce the same exchanges bit-exactly.
pub fn plan_migration(
    pbest_err: &[f32],
    islands: usize,
    migration: Migration,
    t: usize,
    seed: u64,
) -> Vec<(usize, usize)> {
    let n = pbest_err.len();
    let m = islands.clamp(1, n.max(1));
    if m < 2 || migration.elites == 0 || n == 0 {
        return Vec::new();
    }
    let bounds: Vec<(usize, usize)> = partition(n, m)
        .into_iter()
        .map(|(start, rows)| (start, start + rows))
        .collect();
    let mut pairs = Vec::new();
    let exchange = |src_g: usize, dst_g: usize, pairs: &mut Vec<(usize, usize)>| {
        let (ss, se) = bounds[src_g];
        let (ds, de) = bounds[dst_g];
        let count = migration.elites.min(se - ss).min(de - ds);
        let best = best_rows(pbest_err, ss, se, count);
        let worst = worst_rows(pbest_err, ds, de, count);
        pairs.extend(best.into_iter().zip(worst));
    };
    match migration.kind {
        MigrationKind::Ring => {
            for g in 0..m {
                exchange(g, (g + 1) % m, &mut pairs);
            }
        }
        MigrationKind::Star => {
            for g in 1..m {
                exchange(0, g, &mut pairs);
            }
            let island_best = |g: usize| {
                let (start, end) = bounds[g];
                best_rows(pbest_err, start, end, 1)
                    .first()
                    .map(|&r| pbest_err[r])
                    .unwrap_or(f32::INFINITY)
            };
            let best_spoke = (1..m)
                .min_by(|&a, &b| {
                    let (va, vb) = (island_best(a), island_best(b));
                    va.partial_cmp(&vb)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                })
                .expect("m >= 2 implies at least one spoke");
            exchange(best_spoke, 0, &mut pairs);
        }
        MigrationKind::Random => {
            let rng = Philox::new(seed);
            for g in 0..m {
                let u = rng.uniform_at(g as u64, domains::migrate(t));
                let draw = ((u * (m - 1) as f32) as usize).min(m - 2);
                let donor = if draw >= g { draw + 1 } else { draw };
                exchange(donor, g, &mut pairs);
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighborhood_sizes() {
        assert_eq!(Topology::Global.neighborhood_size(10), 10);
        assert_eq!(Topology::Ring { k: 2 }.neighborhood_size(10), 5);
        assert_eq!(Topology::Ring { k: 8 }.neighborhood_size(10), 10);
        let isl = Topology::Islands {
            islands: 4,
            migration: Migration {
                kind: MigrationKind::Ring,
                every_k: 5,
                elites: 1,
            },
        };
        assert_eq!(isl.neighborhood_size(10), 3);
    }

    #[test]
    fn ring_best_matches_brute_force() {
        let err = vec![5.0, 1.0, 4.0, 0.5, 9.0, 2.0];
        let n = err.len();
        for k in 0..=3 {
            let mut out = vec![0; n];
            ring_neighborhood_best(&err, k, &mut out);
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                // Brute force over the circular window.
                let mut cands: Vec<usize> = (0..n)
                    .filter(|&j| {
                        let fwd = (j + n - i) % n;
                        let bwd = (i + n - j) % n;
                        fwd.min(bwd) <= k.min(n / 2)
                    })
                    .collect();
                cands.sort();
                let best = cands
                    .iter()
                    .copied()
                    .min_by(|&a, &b| err[a].partial_cmp(&err[b]).unwrap().then(a.cmp(&b)))
                    .unwrap();
                assert_eq!(out[i], best, "k={k}, i={i}");
            }
        }
    }

    #[test]
    fn k_zero_is_pure_cognition() {
        let err = vec![3.0, 1.0, 2.0];
        let mut out = vec![0; 3];
        ring_neighborhood_best(&err, 0, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn full_ring_equals_global_argmin() {
        let err = vec![3.0, 1.0, 2.0, 1.0, 8.0];
        let mut out = vec![0; 5];
        ring_neighborhood_best(&err, 2, &mut out);
        // k = n/2 covers the whole ring; the duplicate minimum at index 1
        // and 3 resolves to 1 everywhere.
        assert!(out.iter().all(|&b| b == 1), "{out:?}");
    }

    #[test]
    fn empty_and_single_particle() {
        let mut out = vec![];
        ring_neighborhood_best(&[], 3, &mut out);
        let mut out = vec![0];
        ring_neighborhood_best(&[7.0], 3, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn islands_spread_the_remainder_over_leading_islands() {
        // 10 over 3 → 4, 3, 3.
        assert_eq!(partition(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        // Exact split.
        assert_eq!(partition(8, 4)[3], (6, 2));
    }

    #[test]
    fn island_attractors_pick_each_islands_best_with_low_index_ties() {
        let err = vec![5.0, 1.0, 4.0, 0.5, 0.5, 9.0];
        let mut out = vec![0; 6];
        island_attractors(&err, 2, &mut out);
        // Island 0 = rows 0..3 (best at 1); island 1 = rows 3..6 (tie at
        // 3 and 4 resolves to 3).
        assert_eq!(out, vec![1, 1, 1, 3, 3, 3]);
    }

    #[test]
    fn ring_migration_sends_each_islands_best_to_its_successors_worst() {
        let err = vec![
            1.0, 5.0, /* island 1 */ 2.0, 9.0, /* island 2 */ 3.0, 0.5,
        ];
        let mig = Migration {
            kind: MigrationKind::Ring,
            every_k: 1,
            elites: 1,
        };
        let pairs = plan_migration(&err, 3, mig, 0, 7);
        // 0's best (row 0) → 1's worst (row 3); 1's best (row 2) → 2's
        // worst (row 4); 2's best (row 5) → 0's worst (row 1).
        assert_eq!(pairs, vec![(0, 3), (2, 4), (5, 1)]);
    }

    #[test]
    fn star_migration_broadcasts_the_hub_and_promotes_the_best_spoke() {
        let err = vec![4.0, 5.0, /* spokes */ 2.0, 9.0, 3.0, 0.5];
        let mig = Migration {
            kind: MigrationKind::Star,
            every_k: 1,
            elites: 1,
        };
        let pairs = plan_migration(&err, 3, mig, 0, 7);
        // Hub best (row 0) → each spoke's worst (rows 3, 4); best spoke is
        // island 2 (0.5 at row 5) → hub's worst (row 1).
        assert_eq!(pairs, vec![(0, 3), (0, 4), (5, 1)]);
    }

    #[test]
    fn random_migration_is_deterministic_and_never_self_donates() {
        let err: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mig = Migration {
            kind: MigrationKind::Random,
            every_k: 1,
            elites: 1,
        };
        for t in 0..20 {
            let a = plan_migration(&err, 4, mig, t, 42);
            let b = plan_migration(&err, 4, mig, t, 42);
            assert_eq!(a, b, "t={t}: random migration must replay exactly");
            assert_eq!(a.len(), 4, "every island receives exactly once");
            for &(src, dst) in &a {
                let find = |row: usize| {
                    (0..4).find(|&g| {
                        let (s, rows) = partition(12, 4)[g];
                        (s..s + rows).contains(&row)
                    })
                };
                assert_ne!(find(src), find(dst), "t={t}: island donated to itself");
            }
        }
    }

    #[test]
    fn migration_is_a_noop_for_degenerate_shapes() {
        let mig = Migration {
            kind: MigrationKind::Ring,
            every_k: 1,
            elites: 0,
        };
        assert!(plan_migration(&[1.0, 2.0], 2, mig, 0, 1).is_empty());
        let mig = Migration {
            kind: MigrationKind::Ring,
            every_k: 1,
            elites: 1,
        };
        assert!(plan_migration(&[1.0, 2.0], 1, mig, 0, 1).is_empty());
        assert!(plan_migration(&[], 4, mig, 0, 1).is_empty());
    }

    #[test]
    fn topology_display_round_trips_and_rejects_unknown_keys() {
        let cases = [
            Topology::Global,
            Topology::Ring { k: 3 },
            Topology::Islands {
                islands: 8,
                migration: Migration {
                    kind: MigrationKind::Random,
                    every_k: 25,
                    elites: 2,
                },
            },
        ];
        for t in cases {
            assert_eq!(t.to_string().parse::<Topology>().unwrap(), t);
            let upper = t.to_string().to_ascii_uppercase();
            assert_eq!(upper.parse::<Topology>().unwrap(), t);
        }
        assert_eq!(
            " islands:2:star:5:1 ".parse::<Topology>().unwrap(),
            Topology::Islands {
                islands: 2,
                migration: Migration {
                    kind: MigrationKind::Star,
                    every_k: 5,
                    elites: 1
                }
            }
        );
        for bad in [
            "mesh",
            "ring_lbest",
            "ring_lbest:x",
            "islands",
            "islands:4",
            "islands:4:ring:10",
            "islands:4:mesh:10:2",
            "islands:x:ring:10:2",
            "islands:4:ring:10:2:9",
        ] {
            let err = bad.parse::<Topology>().unwrap_err();
            assert!(
                err.contains("islands:<m>:<ring|star|random>")
                    || err.contains("ring, star, random"),
                "{bad}: diagnostic must name the grammar, got {err}"
            );
        }
    }
}
