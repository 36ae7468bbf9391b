//! Usage metering and cost accounting.
//!
//! The paper instruments its prototype to "account for all operations over
//! cloud resources" instead of relying on Amazon's coarse billing (§6.1).
//! [`BillingAccount`] plays that role here: deployments record instance
//! rentals, storage residency, requests and transfers, and the account
//! reports totals and the per-category breakdown plotted in Figure 5
//! (network transfer / computation-EC2 / storage-S3 / storage-EC2).

use crate::catalog::{InstanceType, StorageKind, StorageService, TransferPricing};
use crate::{Gigabytes, Hours};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Cost categories matching the stacked bars of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CostCategory {
    /// Wide-area transfer between the customer and the cloud.
    NetworkTransfer,
    /// EC2 (or other cloud) instance-hours.
    Computation,
    /// S3-style object storage (GB-hours plus requests).
    StorageS3,
    /// Storage on EC2 instance disks (free per-GB, but counted separately so
    /// the breakdown matches the paper's figure).
    StorageEc2,
    /// Customer-owned local resources (always zero cost, tracked for
    /// completeness in hybrid deployments).
    Local,
}

/// Direction of a wide-area transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransferDirection {
    /// Customer → cloud (job input upload).
    In,
    /// Cloud → customer (result download).
    Out,
    /// Between two services of the same provider (free on AWS in-region).
    IntraCloud,
}

/// A per-category cost breakdown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    categories: BTreeMap<CostCategory, f64>,
}

impl CostBreakdown {
    /// Cost recorded under `category` (zero if nothing was recorded).
    pub fn get(&self, category: CostCategory) -> f64 {
        self.categories.get(&category).copied().unwrap_or(0.0)
    }

    /// Sum over all categories.
    pub fn total(&self) -> f64 {
        self.categories.values().sum()
    }

    /// Iterates `(category, cost)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (CostCategory, f64)> + '_ {
        self.categories.iter().map(|(c, v)| (*c, *v))
    }

    /// Merges another breakdown into this one, category by category. Used
    /// by fleet-level accounting to roll per-tenant bills up into one
    /// provider-side bill.
    pub fn absorb(&mut self, other: &CostBreakdown) {
        for (category, cost) in other.iter() {
            self.add(category, cost);
        }
    }

    fn add(&mut self, category: CostCategory, amount: f64) {
        *self.categories.entry(category).or_insert(0.0) += amount;
    }
}

/// An open instance rental session.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RentalSession {
    instance_name: String,
    hourly_price: f64,
    is_local: bool,
    started_at: Hours,
    /// Price actually paid per hour (differs from `hourly_price` for spot
    /// instances).
    effective_hourly_price: f64,
}

/// Meters all chargeable activity of one deployment.
///
/// Instance-hours are **rounded up per allocation session**, reproducing the
/// EC2 behaviour that drives the "instances are billed until the next full
/// hour anyway, so use them for storage" effect discussed under Figure 8.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BillingAccount {
    transfer: Option<TransferPricing>,
    open_sessions: BTreeMap<u64, RentalSession>,
    next_session: u64,
    breakdown: CostBreakdown,
    /// Total instance-hours billed (after round-up), per instance type.
    instance_hours: BTreeMap<String, f64>,
    /// Total GB uploaded from the customer.
    pub uploaded_gb: Gigabytes,
    /// Total GB downloaded to the customer.
    pub downloaded_gb: Gigabytes,
}

impl BillingAccount {
    /// Creates an account using the given transfer pricing.
    pub fn new(transfer: TransferPricing) -> Self {
        Self {
            transfer: Some(transfer),
            ..Default::default()
        }
    }

    /// Starts renting one instance of `itype` at simulation time `now`
    /// (hours). Returns a session id to be passed to [`Self::stop_instance`].
    pub fn start_instance(&mut self, itype: &InstanceType, now: Hours) -> u64 {
        self.start_instance_at_price(itype, now, itype.hourly_price)
    }

    /// Starts renting a spot instance at the given effective hourly price.
    pub fn start_instance_at_price(
        &mut self,
        itype: &InstanceType,
        now: Hours,
        effective_hourly_price: f64,
    ) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.open_sessions.insert(
            id,
            RentalSession {
                instance_name: itype.name.clone(),
                hourly_price: itype.hourly_price,
                is_local: itype.is_local(),
                started_at: now,
                effective_hourly_price,
            },
        );
        id
    }

    /// Stops a rental session at time `now`, charging for the elapsed time
    /// rounded **up** to whole hours (minimum one hour), like EC2.
    ///
    /// Returns the amount charged. Unknown session ids charge nothing.
    pub fn stop_instance(&mut self, session: u64, now: Hours) -> f64 {
        let Some(s) = self.open_sessions.remove(&session) else {
            return 0.0;
        };
        let elapsed = (now - s.started_at).max(0.0);
        let billed_hours = elapsed.ceil().max(1.0);
        let cost = if s.is_local {
            0.0
        } else {
            billed_hours * s.effective_hourly_price
        };
        let category = if s.is_local {
            CostCategory::Local
        } else {
            CostCategory::Computation
        };
        self.breakdown.add(category, cost);
        *self.instance_hours.entry(s.instance_name).or_insert(0.0) += billed_hours;
        cost
    }

    /// Stops a rental session that the *provider* terminated (a spot
    /// instance out-bid by the market): completed whole hours are charged,
    /// but the partial hour in which the termination happened is free —
    /// EC2's out-of-bid rule. Every revoked session of a fleet is settled
    /// here (`JobExecution::kill_cloud_nodes`). Contrast with
    /// [`Self::stop_instance`], which rounds *up* (the customer chose to
    /// stop and pays to the end of the started hour).
    ///
    /// Returns the amount charged. Unknown session ids charge nothing.
    pub fn stop_instance_revoked(&mut self, session: u64, now: Hours) -> f64 {
        let Some(s) = self.open_sessions.remove(&session) else {
            return 0.0;
        };
        let elapsed = (now - s.started_at).max(0.0);
        // Nudge before flooring: a session spanning whole hours between two
        // fractional fleet instants can compute to 2.999…96, and a fully
        // completed hour is chargeable (same float-summation tolerance the
        // engine's trace-hour lookup applies).
        let billed_hours = (elapsed + 1e-9).floor();
        let cost = if s.is_local {
            0.0
        } else {
            billed_hours * s.effective_hourly_price
        };
        let category = if s.is_local {
            CostCategory::Local
        } else {
            CostCategory::Computation
        };
        self.breakdown.add(category, cost);
        *self.instance_hours.entry(s.instance_name).or_insert(0.0) += billed_hours;
        cost
    }

    /// What the open rental sessions *would* charge if the customer
    /// stopped them all at time `now`: elapsed time rounded up to whole
    /// hours (minimum one), exactly like [`Self::stop_instance`].
    /// Nothing is recorded — this is the live-bill
    /// preview a fleet driver adds to [`Self::total_cost`], so that an
    /// abort at the same instant settles at the same figure the last
    /// status query quoted.
    pub fn open_accrual(&self, now: Hours) -> f64 {
        self.open_sessions
            .values()
            .filter(|s| !s.is_local)
            .map(|s| (now - s.started_at).max(0.0).ceil().max(1.0) * s.effective_hourly_price)
            .sum()
    }

    /// Records `gb` gigabytes resident on `service` for `hours` hours, plus
    /// optional PUT/GET request counts against that service.
    pub fn record_storage(
        &mut self,
        service: &StorageService,
        gb: Gigabytes,
        hours: Hours,
        puts: u64,
        gets: u64,
    ) {
        let cost = service.storage_cost(gb, hours)
            + puts as f64 * service.cost_put
            + gets as f64 * service.cost_get;
        let category = match service.kind {
            StorageKind::ObjectStore => CostCategory::StorageS3,
            StorageKind::InstanceDisk => CostCategory::StorageEc2,
            StorageKind::Local => CostCategory::Local,
        };
        self.breakdown.add(category, cost);
    }

    /// Records a wide-area or intra-cloud transfer of `gb` gigabytes.
    pub fn record_transfer(&mut self, gb: Gigabytes, direction: TransferDirection) {
        let pricing = self.transfer.unwrap_or(TransferPricing {
            in_per_gb: 0.0,
            out_per_gb: 0.0,
            intra_cloud_per_gb: 0.0,
        });
        let gb = gb.max(0.0);
        let cost = match direction {
            TransferDirection::In => {
                self.uploaded_gb += gb;
                gb * pricing.in_per_gb
            }
            TransferDirection::Out => {
                self.downloaded_gb += gb;
                gb * pricing.out_per_gb
            }
            TransferDirection::IntraCloud => gb * pricing.intra_cloud_per_gb,
        };
        self.breakdown.add(CostCategory::NetworkTransfer, cost);
    }

    /// Total cost across all categories. Open sessions are not counted until
    /// they are stopped (see [`Self::open_accrual`]).
    pub fn total_cost(&self) -> f64 {
        self.breakdown.total()
    }

    /// Per-category breakdown (Figure 5 style).
    pub fn breakdown(&self) -> &CostBreakdown {
        &self.breakdown
    }

    /// Billed instance-hours per instance type.
    pub fn instance_hours(&self, instance_name: &str) -> f64 {
        self.instance_hours
            .get(instance_name)
            .copied()
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    fn catalog() -> Catalog {
        Catalog::aws_with_local_cluster(5)
    }

    #[test]
    fn instance_hours_round_up() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let s = acct.start_instance(large, 0.0);
        // 1.1 hours elapsed -> 2 hours billed.
        let cost = acct.stop_instance(s, 1.1);
        assert!((cost - 2.0 * 0.34).abs() < 1e-9);
        assert!((acct.instance_hours("m1.large") - 2.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_one_hour_is_billed() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let s = acct.start_instance(large, 2.0);
        let cost = acct.stop_instance(s, 2.0);
        assert!((cost - 0.34).abs() < 1e-9);
    }

    #[test]
    fn hadoop_s3_scenario_two_hours_charged_for_one_hour_of_work() {
        // §6.2: processing finished in a little over one hour but two full
        // hours were charged for each of the 100 instances.
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let sessions: Vec<u64> = (0..100).map(|_| acct.start_instance(large, 0.0)).collect();
        for s in sessions {
            acct.stop_instance(s, 1.1);
        }
        assert!(
            (acct.breakdown().get(CostCategory::Computation) - 100.0 * 2.0 * 0.34).abs() < 1e-6
        );
    }

    #[test]
    fn revoked_sessions_do_not_pay_the_terminated_partial_hour() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        // Out-bid 2.6 hours in: two completed hours charged, the third free.
        let s = acct.start_instance_at_price(large, 0.0, 0.2);
        let cost = acct.stop_instance_revoked(s, 2.6);
        assert!((cost - 2.0 * 0.2).abs() < 1e-9);
        assert!((acct.instance_hours("m1.large") - 2.0).abs() < 1e-9);
        // Revoked before the first hour completed: nothing charged at all
        // (the customer-initiated stop would have paid the minimum hour).
        let s = acct.start_instance_at_price(large, 10.0, 0.2);
        assert_eq!(acct.stop_instance_revoked(s, 10.4), 0.0);
        // Unknown sessions still charge nothing.
        assert_eq!(acct.stop_instance_revoked(999, 5.0), 0.0);
    }

    #[test]
    fn local_instances_cost_nothing() {
        let cat = catalog();
        let local = cat.instance("local").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let s = acct.start_instance(local, 0.0);
        assert_eq!(acct.stop_instance(s, 10.0), 0.0);
        assert_eq!(acct.total_cost(), 0.0);
    }

    #[test]
    fn spot_sessions_use_effective_price() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let s = acct.start_instance_at_price(large, 0.0, 0.13);
        let cost = acct.stop_instance(s, 3.0);
        assert!((cost - 3.0 * 0.13).abs() < 1e-9);
    }

    #[test]
    fn storage_and_requests_are_categorized() {
        let cat = catalog();
        let s3 = cat.storage("S3").unwrap();
        let disk = cat.storage("EC2-disk").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        acct.record_storage(s3, 32.0, 6.0, 512, 512);
        acct.record_storage(disk, 32.0, 6.0, 0, 0);
        assert!(acct.breakdown().get(CostCategory::StorageS3) > 0.0);
        assert_eq!(acct.breakdown().get(CostCategory::StorageEc2), 0.0);
        let expected = s3.storage_cost(32.0, 6.0) + 512.0 * s3.cost_put + 512.0 * s3.cost_get;
        assert!((acct.breakdown().get(CostCategory::StorageS3) - expected).abs() < 1e-9);
    }

    #[test]
    fn transfers_track_direction_and_volume() {
        let cat = catalog();
        let mut acct = BillingAccount::new(cat.transfer);
        acct.record_transfer(32.0, TransferDirection::In);
        acct.record_transfer(1.0, TransferDirection::Out);
        acct.record_transfer(10.0, TransferDirection::IntraCloud);
        assert!((acct.uploaded_gb - 32.0).abs() < 1e-12);
        assert!((acct.downloaded_gb - 1.0).abs() < 1e-12);
        let expected = 32.0 * 0.10 + 1.0 * 0.12;
        assert!((acct.breakdown().get(CostCategory::NetworkTransfer) - expected).abs() < 1e-9);
    }

    #[test]
    fn open_accrual_previews_the_close_all_charge() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let local = cat.instance("local").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let sessions = [
            acct.start_instance_at_price(large, 0.0, 0.2),
            acct.start_instance(large, 0.5),
            acct.start_instance(local, 0.0),
        ];
        // 2.3h elapsed → 3h, 1.8h elapsed → 2h; the local node is free.
        let preview = acct.open_accrual(2.3);
        assert!((preview - (3.0 * 0.2 + 2.0 * 0.34)).abs() < 1e-9);
        // The preview matches what stopping every session at the same
        // instant charges, and recorded nothing itself.
        assert_eq!(acct.total_cost(), 0.0);
        let charged: f64 = sessions.map(|id| acct.stop_instance(id, 2.3)).iter().sum();
        assert!((charged - preview).abs() < 1e-9);
        assert_eq!(acct.open_accrual(5.0), 0.0);
    }

    #[test]
    fn unknown_session_charges_nothing() {
        let cat = catalog();
        let mut acct = BillingAccount::new(cat.transfer);
        assert_eq!(acct.stop_instance(999, 5.0), 0.0);
    }

    #[test]
    fn breakdown_total_matches_sum() {
        let cat = catalog();
        let large = cat.instance("m1.large").unwrap();
        let s3 = cat.storage("S3").unwrap();
        let mut acct = BillingAccount::new(cat.transfer);
        let s = acct.start_instance(large, 0.0);
        acct.stop_instance(s, 1.0);
        acct.record_storage(s3, 10.0, 1.0, 100, 0);
        acct.record_transfer(10.0, TransferDirection::In);
        let sum: f64 = acct.breakdown().iter().map(|(_, v)| v).sum();
        assert!((acct.total_cost() - sum).abs() < 1e-12);
    }
}
