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

pub mod billing;
pub mod catalog;
pub mod description;
pub mod spot;

pub use billing::{BillingAccount, CostBreakdown, CostCategory, TransferDirection};
pub use catalog::{Catalog, InstanceType, StorageKind, StorageService, TransferPricing};
pub use description::ServiceDescription;
pub use spot::{SpotMarket, SpotTrace, TraceKind};

/// Gigabytes, the data unit used throughout the model (the paper reports all
/// data sizes in GB).
pub type Gigabytes = f64;

/// Simulation time is measured in hours (fractional), matching the paper's
/// one-hour planning intervals and EC2's hourly billing granularity.
pub type Hours = f64;
