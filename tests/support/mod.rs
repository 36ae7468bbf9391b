//! Shared test support: the independent [`oracle`] and the configuration
//! matrix the solver suites check against it, and the [`fleet`] fixtures
//! and invariants of the fleet suites.
#![allow(dead_code)]

pub(crate) mod fleet;
pub(crate) mod oracle;

use conductor_lp::SolveOptions;

/// Every configuration of the revised engine on top of `base`:
/// bounded-variables × dual steepest-edge.
pub(crate) fn revised_configs(base: &SolveOptions) -> Vec<(String, SolveOptions)> {
    [
        ("default", false, false),
        ("dse", false, true),
        ("bv", true, false),
        ("bv+dse", true, true),
    ]
    .into_iter()
    .map(|(label, bounded_variables, dual_steepest_edge)| {
        let options = SolveOptions {
            bounded_variables,
            dual_steepest_edge,
            ..base.clone()
        };
        (label.to_string(), options)
    })
    .collect()
}
