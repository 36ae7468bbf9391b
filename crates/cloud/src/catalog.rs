//! Service catalog: instance types, storage services and transfer pricing.
//!
//! The defaults encode Amazon's July-2011 US-East price sheet, which is the
//! price structure the paper's evaluation uses (§6.1), together with the
//! measured k-means throughput per instance type the paper reports
//! (0.44 GB/h per m1.large node) and the specified-vs-measured divergence of
//! Figure 1.

use crate::{Gigabytes, Hours};
use serde::{Deserialize, Serialize};

/// A rentable compute instance type (EC2 instance type or a local machine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceType {
    /// Provider-facing name, e.g. `"m1.large"` or `"local"`.
    pub name: String,
    /// Specified compute capacity in EC2 Compute Units (1 ECU ≈ a 1.0–1.2 GHz
    /// 2007 Opteron/Xeon). Local machines get their equivalent rating.
    pub ecu: f64,
    /// Memory in GB (informational; the planner does not model memory).
    pub memory_gb: f64,
    /// Size of the bundled virtual disk in GB — the "resource overlap" of
    /// §4.6 that lets instances double as storage.
    pub disk_gb: Gigabytes,
    /// On-demand price per instance-hour in USD. Zero for customer-owned
    /// local machines (their use incurs no marginal cost, §2.1).
    pub hourly_price: f64,
    /// *Measured* application throughput in GB/h per node for the evaluation
    /// workload (k-means). This is what the planner should use.
    pub measured_throughput_gbph: f64,
    /// Maximum number of simultaneously rentable instances (`None` =
    /// effectively unlimited, as for EC2; `Some(n)` for a local cluster).
    pub max_instances: Option<usize>,
}

impl InstanceType {
    /// Throughput *projected* from the specified ECU rating by linear scaling
    /// from a reference instance, the naive estimate Figure 1 shows diverging
    /// from reality.
    pub fn projected_throughput_gbph(&self, reference: &InstanceType) -> f64 {
        if reference.ecu <= 0.0 {
            return 0.0;
        }
        reference.measured_throughput_gbph * self.ecu / reference.ecu
    }

    /// `true` for customer-owned machines that incur no rental cost.
    pub fn is_local(&self) -> bool {
        self.hourly_price == 0.0
    }
}

/// The class of a storage service, used for cost-breakdown reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageKind {
    /// A dedicated object store such as S3.
    ObjectStore,
    /// Virtual disks bundled with compute instances (EC2 local disks).
    InstanceDisk,
    /// Customer-owned local storage.
    Local,
}

/// A storage service offering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageService {
    /// Provider-facing name, e.g. `"S3"`.
    pub name: String,
    /// Which class of storage this is.
    pub kind: StorageKind,
    /// Cost per GB-hour of data kept in the service (the paper's
    /// `cost_t_store`, e.g. `2.08333e-4` $/GB/h ≈ $0.15/GB-month for S3).
    pub cost_per_gb_hour: f64,
    /// Cost per PUT/upload operation (the paper's `cost_put`).
    pub cost_put: f64,
    /// Cost per GET/download operation (the paper's `cost_get`).
    pub cost_get: f64,
    /// Capacity limit in GB (`None` = unlimited, as for S3).
    pub capacity_gb: Option<Gigabytes>,
    /// Sustained throughput in MB/s a single client sees against this
    /// backend (used by the storage-layer comparison of Figure 15).
    pub throughput_mbps: f64,
    /// Replication factor the service maintains internally.
    pub replication: u32,
}

impl StorageService {
    /// Storage cost of keeping `gb` gigabytes for `hours` hours.
    pub(crate) fn storage_cost(&self, gb: Gigabytes, hours: Hours) -> f64 {
        self.cost_per_gb_hour * gb.max(0.0) * hours.max(0.0)
    }
}

/// Wide-area and intra-cloud transfer pricing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferPricing {
    /// Cost per GB transferred from the customer into the cloud.
    pub in_per_gb: f64,
    /// Cost per GB transferred from the cloud back to the customer.
    pub out_per_gb: f64,
    /// Cost per GB moved between services inside the same provider
    /// (EC2 ↔ S3 within a region is free on AWS).
    pub intra_cloud_per_gb: f64,
}

impl TransferPricing {
    /// AWS US-East pricing as of July 2011.
    pub fn aws_july_2011() -> Self {
        Self {
            in_per_gb: 0.10,
            out_per_gb: 0.12,
            intra_cloud_per_gb: 0.0,
        }
    }
}

/// The full set of services available to a deployment: instance types,
/// storage services, transfer pricing and the customer's uplink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Catalog {
    /// Rentable instance types (cloud and local).
    pub instances: Vec<InstanceType>,
    /// Storage services.
    pub storages: Vec<StorageService>,
    /// Transfer pricing between the customer and the cloud.
    pub transfer: TransferPricing,
    /// Customer uplink bandwidth in Mbit/s (16 Mbit/s in most experiments,
    /// 8 Mbit/s in the storage-mix experiment of Figure 8).
    pub uplink_mbps: f64,
}

impl Catalog {
    /// The AWS July-2011 catalog used throughout the paper's evaluation:
    /// m1.large, m1.xlarge and c1.xlarge instances, S3, EC2 instance disks,
    /// and a 16 Mbit/s customer uplink.
    pub fn aws_july_2011() -> Self {
        let m1_large = InstanceType {
            name: "m1.large".into(),
            ecu: 4.0,
            memory_gb: 7.5,
            disk_gb: 850.0,
            hourly_price: 0.34,
            measured_throughput_gbph: 0.44,
            max_instances: None,
        };
        // Figure 1: measured throughput grows sub-linearly in ECU, so the
        // divergence between projected and measured performance widens with
        // larger instance types.
        let m1_xlarge = InstanceType {
            name: "m1.xlarge".into(),
            ecu: 8.0,
            memory_gb: 15.0,
            disk_gb: 1690.0,
            hourly_price: 0.68,
            measured_throughput_gbph: 0.62,
            max_instances: None,
        };
        let c1_xlarge = InstanceType {
            name: "c1.xlarge".into(),
            ecu: 20.0,
            memory_gb: 7.0,
            disk_gb: 1690.0,
            hourly_price: 0.68,
            measured_throughput_gbph: 1.05,
            max_instances: None,
        };
        let s3 = StorageService {
            name: "S3".into(),
            kind: StorageKind::ObjectStore,
            cost_per_gb_hour: 2.083_333_32e-4,
            cost_put: 1.0e-5,
            cost_get: 1.0e-6,
            capacity_gb: None,
            throughput_mbps: 14.0,
            replication: 3,
        };
        let ec2_disk = StorageService {
            name: "EC2-disk".into(),
            kind: StorageKind::InstanceDisk,
            cost_per_gb_hour: 0.0,
            cost_put: 0.0,
            cost_get: 0.0,
            capacity_gb: Some(850.0),
            throughput_mbps: 20.0,
            replication: 1,
        };
        Self {
            instances: vec![m1_large, m1_xlarge, c1_xlarge],
            storages: vec![s3, ec2_disk],
            transfer: TransferPricing::aws_july_2011(),
            uplink_mbps: 16.0,
        }
    }

    /// The hybrid-cloud catalog of §6.3: the AWS catalog plus a local cluster
    /// of `nodes` customer-owned machines (AMD Athlon64 dual-core, 2 GB RAM)
    /// that process the workload at the same 0.44 GB/h per node but cost
    /// nothing to use.
    pub fn aws_with_local_cluster(nodes: usize) -> Self {
        let mut cat = Self::aws_july_2011();
        cat.instances.push(InstanceType {
            name: "local".into(),
            ecu: 4.0,
            memory_gb: 2.0,
            disk_gb: 250.0,
            hourly_price: 0.0,
            measured_throughput_gbph: 0.44,
            max_instances: Some(nodes),
        });
        cat.storages.push(StorageService {
            name: "local-disk".into(),
            kind: StorageKind::Local,
            cost_per_gb_hour: 0.0,
            cost_put: 0.0,
            cost_get: 0.0,
            capacity_gb: Some(250.0 * nodes as f64),
            throughput_mbps: 30.0,
            replication: 1,
        });
        cat
    }

    /// Looks up an instance type by name.
    pub fn instance(&self, name: &str) -> Option<&InstanceType> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Looks up a storage service by name.
    pub fn storage(&self, name: &str) -> Option<&StorageService> {
        self.storages.iter().find(|s| s.name == name)
    }

    /// Customer uplink bandwidth expressed in GB per hour.
    pub fn uplink_gb_per_hour(&self) -> f64 {
        mbps_to_gb_per_hour(self.uplink_mbps)
    }
}

/// Converts a bandwidth in Mbit/s into GB/h (1 GB = 1024^3 bytes).
pub fn mbps_to_gb_per_hour(mbps: f64) -> f64 {
    // Mbit/s -> bytes/s -> GB/h
    (mbps * 1.0e6 / 8.0) * 3600.0 / (1024.0 * 1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aws_catalog_matches_paper_setup() {
        let cat = Catalog::aws_july_2011();
        let large = cat.instance("m1.large").unwrap();
        assert_eq!(large.ecu, 4.0);
        assert!((large.hourly_price - 0.34).abs() < 1e-9);
        assert!((large.measured_throughput_gbph - 0.44).abs() < 1e-9);
        let s3 = cat.storage("S3").unwrap();
        assert!((s3.cost_put - 1.0e-5).abs() < 1e-12);
        assert!((s3.cost_get - 1.0e-6).abs() < 1e-12);
        assert!(cat.uplink_mbps > 0.0);
    }

    #[test]
    fn xlarge_has_worse_price_performance_than_large() {
        // §6.1: extra-large instances are never chosen because their
        // cost-performance ratio is slightly worse than large instances.
        let cat = Catalog::aws_july_2011();
        let large = cat.instance("m1.large").unwrap();
        let xlarge = cat.instance("m1.xlarge").unwrap();
        let dollars_per_gb = |i: &InstanceType| i.hourly_price / i.measured_throughput_gbph;
        assert!(dollars_per_gb(xlarge) > dollars_per_gb(large));
    }

    #[test]
    fn projected_throughput_diverges_with_ecu() {
        // Figure 1: the gap between projected and measured throughput grows
        // with the specified instance performance.
        let cat = Catalog::aws_july_2011();
        let large = cat.instance("m1.large").unwrap();
        let xlarge = cat.instance("m1.xlarge").unwrap();
        let c1 = cat.instance("c1.xlarge").unwrap();
        let gap_x = xlarge.projected_throughput_gbph(large) - xlarge.measured_throughput_gbph;
        let gap_c = c1.projected_throughput_gbph(large) - c1.measured_throughput_gbph;
        assert!(gap_x > 0.0);
        assert!(gap_c > gap_x);
        // The reference projects onto itself exactly.
        assert!(
            (large.projected_throughput_gbph(large) - large.measured_throughput_gbph).abs() < 1e-12
        );
    }

    #[test]
    fn local_cluster_is_free_and_capped() {
        let cat = Catalog::aws_with_local_cluster(5);
        let local = cat.instance("local").unwrap();
        assert!(local.is_local());
        assert_eq!(local.max_instances, Some(5));
        assert_eq!(local.hourly_price, 0.0);
        assert!(cat.storage("local-disk").is_some());
    }

    #[test]
    fn storage_costs_scale_linearly_and_requests_round_up() {
        let cat = Catalog::aws_july_2011();
        let s3 = cat.storage("S3").unwrap();
        let c1 = s3.storage_cost(32.0, 2.0);
        let c2 = s3.storage_cost(64.0, 2.0);
        assert!((c2 - 2.0 * c1).abs() < 1e-12);
        // Negative inputs are clamped.
        assert_eq!(s3.storage_cost(-5.0, 1.0), 0.0);
    }

    #[test]
    fn uplink_conversion_is_sane() {
        // 16 Mbit/s = 2 MB/s -> roughly 6.7 GB/h.
        let gbh = mbps_to_gb_per_hour(16.0);
        assert!(gbh > 6.0 && gbh < 7.5, "{gbh}");
        // 8 Mbit/s is half of that.
        assert!((mbps_to_gb_per_hour(8.0) - gbh / 2.0).abs() < 1e-9);
    }

    #[test]
    fn catalog_serializes_roundtrip() {
        let cat = Catalog::aws_with_local_cluster(3);
        let json = serde_json::to_string(&cat).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        assert_eq!(cat, back);
    }
}
