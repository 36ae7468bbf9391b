//! Shared test support: the independent [`oracle`] and the configuration
//! matrix the solver suites check against it, and the [`fleet`] fixtures
//! and invariants of the fleet suites.
#![allow(dead_code)]

pub mod fleet;
pub mod oracle;

use conductor_lp::SolveOptions;

/// Every configuration of the revised engine on top of `base`: warm and cold
/// node starts × bounded-variables × dual steepest-edge.
pub fn revised_configs(base: &SolveOptions) -> Vec<(String, SolveOptions)> {
    let mut cfgs = Vec::with_capacity(8);
    for warm_start in [true, false] {
        for bounded_variables in [false, true] {
            for dual_steepest_edge in [false, true] {
                let label = format!(
                    "{}{}{}",
                    if warm_start { "warm" } else { "cold" },
                    if bounded_variables { "+bv" } else { "" },
                    if dual_steepest_edge { "+dse" } else { "" },
                );
                cfgs.push((
                    label,
                    SolveOptions {
                        warm_start,
                        bounded_variables,
                        dual_steepest_edge,
                        ..base.clone()
                    },
                ));
            }
        }
    }
    cfgs
}
