//! Experiment harness regenerating every table and figure of the FastPSO
//! paper's evaluation (§4). One module per artifact; one binary per
//! artifact under `src/bin/`. Host wall-clock is measured by `perfbench/`,
//! not here.
//!
//! Reported *elapsed times* are modeled seconds on the paper's testbed
//! (see DESIGN.md §2); *solution qualities* (Table 2) are genuinely
//! computed by executing every implementation. Because modeled time is
//! linear in the iteration count after warm-up, the harness runs each
//! configuration at two reduced iteration counts and extrapolates the
//! affine model to the paper's 2000 iterations — exact for this
//! accounting, and it keeps a full regeneration tractable on a small
//! host. `--paper-scale` runs the real 2000 iterations instead.

pub mod report;
pub mod runner;
pub mod scale;

pub mod experiments {
    pub mod fig4;
    pub mod fig5;
    pub mod fig6;
    pub mod table1;
    pub mod table2;
    pub mod table3;
    pub mod table4;
    pub mod table5;
}

pub use report::Table;
pub use runner::{
    backend_by_name, paper_backends, run_extrapolated, threadconf_objective, ExtrapolatedRun,
};
pub use scale::Scale;
