//! Umbrella crate for the Conductor reproduction.
//!
//! Re-exports the workspace crates under one roof so the top-level
//! `examples/` and `tests/` can depend on a single package; library users
//! should depend on the individual `conductor-*` crates directly.

pub use conductor_cloud as cloud;
pub use conductor_core as core;
pub use conductor_lp as lp;
pub use conductor_mapreduce as mapreduce;
