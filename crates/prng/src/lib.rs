//! Fast parallel random number generation for swarm initialization and the
//! per-iteration weight matrices (paper §3.1).
//!
//! FastPSO must generate two `n × d` random matrices (`L`, `G`) *every
//! iteration*, plus the initial positions and velocities, on the device.
//! cuRAND solves this with counter-based generators; this crate provides the
//! same tool: **Philox4x32-10** (Salmon et al., SC'11), a pure function
//! from `(key, counter)` to four 32-bit words. Any element of any stream
//! can be computed independently — which is exactly what a GPU thread needs
//! to draw "its" random weight with no shared state and no sequencing.
//!
//! Also provided:
//!
//! * [`SplitMix64`] — seed expansion (keys, stream offsets), and its
//!   mix [`splitmix64`] as a stateless hash;
//! * [`Xoshiro256pp`] — a fast sequential generator for host-side baselines;
//! * [`dist`] — uniform/normal mappings from raw words to floats.
//!
//! Everything is deterministic and dependency-free.
//!
//! # Example
//!
//! ```
//! use fastpso_prng::Philox;
//!
//! let rng = Philox::new(42);
//! // Element 17 of domain 3 (e.g. iteration 3's L matrix) — computable
//! // from any thread with no shared state:
//! let w = rng.uniform_at(17, 3);
//! assert!((0.0..1.0).contains(&w));
//! assert_eq!(w, Philox::new(42).uniform_at(17, 3));
//! ```

pub mod dist;
pub mod philox;
pub mod splitmix;
pub mod xoshiro;

pub use dist::{normal_from_u32_pair, uniform_f32_from_u32, uniform_in_range};
pub use philox::Philox;
pub use splitmix::{splitmix64, SplitMix64};
pub use xoshiro::Xoshiro256pp;
