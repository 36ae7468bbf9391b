//! # conductor-cloud
//!
//! The priced cloud substrate of the Conductor reproduction. The original
//! system runs against Amazon Web Services; this crate provides a faithful
//! *simulation* of the parts of AWS the paper's evaluation exercises:
//!
//! * an **instance/service catalog** with the July-2011 price sheet used in
//!   the paper (m1.large / m1.xlarge / c1.xlarge, S3, transfer pricing) and
//!   the divergence between *specified* (ECU-projected) and *measured*
//!   application throughput shown in Figure 1,
//! * **service descriptions** — the machine-readable resource descriptions of
//!   §4.2 (the paper uses XML; we use the serde/JSON equivalent),
//! * a **billing account** that meters instance-hours (rounded up per
//!   allocation, exactly like EC2), storage GB-hours, PUT/GET requests and
//!   network transfer, and reports per-category cost breakdowns (Figure 5),
//! * **spot markets**: price traces (an AWS-like non-diurnal trace and an
//!   electricity-derived diurnal trace, Figure 13) and a bid/termination
//!   simulator used by the spot-savings experiment (Figure 14).
//!
//! # The public surface
//!
//! A caller starts from [`Catalog`] — [`Catalog::aws_july_2011`] is the
//! paper's price sheet — and meters a deployment in a [`BillingAccount`].
//! The catalog lists [`InstanceType`]s and [`StorageService`]s (of a
//! [`StorageKind`]) under a [`TransferPricing`]; [`ServiceDescription`] is
//! the published form of one entry. The account reports a
//! [`CostBreakdown`] by [`CostCategory`] and meters transfers by
//! [`TransferDirection`]. [`SpotMarket`] prices spot instances from a
//! [`SpotTrace`] of a [`TraceKind`]. The `catalog` module is public only
//! for [`catalog::mbps_to_gb_per_hour`]; the others are private.

mod billing;
// Public as a path: `benchmark/src/fixtures.rs` imports
// `conductor_cloud::catalog::mbps_to_gb_per_hour`.
pub mod catalog;
mod description;
mod spot;

pub use billing::{BillingAccount, CostBreakdown, CostCategory, TransferDirection};
pub use catalog::{Catalog, InstanceType, StorageKind, StorageService, TransferPricing};
pub use description::ServiceDescription;
pub use spot::{SpotMarket, SpotTrace, TraceKind};

/// Gigabytes, the data unit used throughout the model (the paper reports all
/// data sizes in GB).
type Gigabytes = f64;

/// Simulation time is measured in hours (fractional), matching the paper's
/// one-hour planning intervals and EC2's hourly billing granularity.
type Hours = f64;
