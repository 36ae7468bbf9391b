//! The resource abstraction layer (§4.2, §4.6, §5.1).
//!
//! Cloud services bundle storage and computation (an EC2 instance is both a
//! worker and 850 GB of disk); the abstraction layer breaks every offering
//! into separate **compute resources** and **storage resources** so the
//! planner can reason about them independently, while remembering the overlap
//! (instance-disk storage only exists while instances are rented).

use conductor_cloud::{Catalog, InstanceType, ServiceDescription, StorageKind, StorageService};
use conductor_mapreduce::JobSpec;
use serde::{Deserialize, Serialize};

/// Measured m1.large throughput (GB/h) of the reference workload — the
/// paper's k-means job — that the catalog's per-instance capacities were
/// calibrated against. A job spec's `reference_throughput_gbph` is expressed
/// on the same instance, so the ratio scales every instance's capacity to
/// the workload at hand (§4.2, Figure 1). Shared with the execution
/// simulator, which applies the identical scaling.
pub const REFERENCE_WORKLOAD_GBPH: f64 = conductor_mapreduce::REFERENCE_INSTANCE_GBPH;

/// HDFS-style replication factor assumed for data resident on instance
/// disks: each stored GB pins disk (and therefore a slice of a running
/// instance) on this many nodes (§4.6).
pub const INSTANCE_DISK_REPLICATION: f64 = 3.0;

/// A compute resource: something that can run MapReduce tasks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeResource {
    /// Service name (matches the catalog instance type).
    pub name: String,
    /// Price per node-hour in USD (on-demand).
    pub hourly_price: f64,
    /// Processing capacity per node in GB/h.
    pub capacity_gbph: f64,
    /// Maximum simultaneously allocatable nodes (`None` = unlimited).
    pub max_nodes: Option<usize>,
    /// Disk capacity per node in GB that doubles as storage (§4.6).
    pub disk_gb: f64,
    /// `true` for customer-owned machines (no rental cost).
    pub is_local: bool,
}

/// A storage resource: somewhere data can live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StorageResource {
    /// Service name (matches the catalog storage service).
    pub name: String,
    /// Cost per GB-hour of residency.
    pub cost_per_gb_hour: f64,
    /// Cost per GB written (request costs translated to per-byte costs as in
    /// §4.2, using the storage layer's chunk size).
    pub put_cost_per_gb: f64,
    /// Cost per GB read.
    pub get_cost_per_gb: f64,
    /// Capacity in GB (`None` = unlimited).
    pub capacity_gb: Option<f64>,
    /// `true` when this storage only exists on rented cloud instances (the
    /// resource-overlap coupling of §4.6): its capacity at any time is the
    /// sum of the rented nodes' disks.
    pub instance_disk: bool,
    /// `true` for customer-owned storage.
    pub is_local: bool,
}

/// The uniform view of everything the planner can use.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ResourcePool {
    /// Compute resources.
    pub compute: Vec<ComputeResource>,
    /// Storage resources.
    pub storage: Vec<StorageResource>,
    /// Customer uplink bandwidth in GB/h.
    pub uplink_gbph: f64,
    /// Transfer price per GB into the cloud.
    pub transfer_in_per_gb: f64,
    /// Transfer price per GB out of the cloud.
    pub transfer_out_per_gb: f64,
    /// Chunk size (MB) the storage layer uses, for translating per-request
    /// prices into per-GB prices.
    pub chunk_mb: f64,
}

impl ResourcePool {
    /// Builds the pool from a service catalog.
    ///
    /// `chunk_mb` is the object size Conductor's storage layer uses when
    /// talking to object stores (it determines how per-request prices
    /// translate into per-GB prices).
    pub fn from_catalog(catalog: &Catalog, chunk_mb: f64) -> Self {
        let compute: Vec<ComputeResource> = catalog
            .instances
            .iter()
            .map(ComputeResource::from_instance)
            .collect();
        let storage = catalog
            .storages
            .iter()
            .map(|s| StorageResource::from_storage(s, chunk_mb))
            .collect();
        Self {
            compute,
            storage,
            uplink_gbph: catalog.uplink_gb_per_hour(),
            // Inbound transfer has been free on AWS since mid-2011; outbound
            // is charged (the catalog carries both).
            transfer_in_per_gb: 0.0,
            transfer_out_per_gb: catalog.transfer.out_per_gb,
            chunk_mb,
        }
    }

    /// Builds the pool from published service descriptions plus uplink
    /// parameters (the "provider-published description" workflow of §4.2).
    pub fn from_descriptions(
        descriptions: &[ServiceDescription],
        uplink_gbph: f64,
        transfer_out_per_gb: f64,
        chunk_mb: f64,
    ) -> Self {
        let mut compute = Vec::new();
        let mut storage = Vec::new();
        for d in descriptions {
            if let Some(i) = d.to_instance() {
                compute.push(ComputeResource::from_instance(&i));
            }
            if let Some(s) = d.to_storage() {
                storage.push(StorageResource {
                    instance_disk: d.can_compute,
                    ..StorageResource::from_storage(&s, chunk_mb)
                });
            }
        }
        Self {
            compute,
            storage,
            uplink_gbph,
            transfer_in_per_gb: 0.0,
            transfer_out_per_gb,
            chunk_mb,
        }
    }

    /// Looks up a compute resource by name.
    pub fn compute_resource(&self, name: &str) -> Option<&ComputeResource> {
        self.compute.iter().find(|c| c.name == name)
    }

    /// Looks up a storage resource by name.
    pub fn storage_resource(&self, name: &str) -> Option<&StorageResource> {
        self.storage.iter().find(|s| s.name == name)
    }

    /// Restricts the pool to the named compute resources (keeps all storage).
    /// Unknown names are ignored.
    pub fn with_compute_only(mut self, names: &[&str]) -> Self {
        self.compute.retain(|c| names.contains(&c.name.as_str()));
        self
    }

    /// Restricts the pool to the named storage resources (keeps all compute).
    pub fn with_storage_only(mut self, names: &[&str]) -> Self {
        self.storage.retain(|s| names.contains(&s.name.as_str()));
        self
    }

    /// Caps the simultaneously allocatable nodes of one compute resource
    /// (e.g. a fleet-wide EC2 allocation limit shared by all tenants).
    /// Unknown names are ignored.
    pub fn with_compute_cap(mut self, name: &str, cap: usize) -> Self {
        if let Some(c) = self.compute.iter_mut().find(|c| c.name == name) {
            c.max_nodes = Some(match c.max_nodes {
                Some(existing) => existing.min(cap),
                None => cap,
            });
        }
        self
    }

    /// This pool with every node delivering the *observed* `gbph` for
    /// `spec`'s workload. The model scales capacities by
    /// `spec.reference_throughput_gbph` relative to the reference workload
    /// (see `ComputeResource::capacity_for_spec`), so the observed rate is
    /// converted back into reference-workload units here — otherwise a
    /// non-reference workload would be scaled twice.
    pub(crate) fn with_observed_throughput(mut self, spec: &JobSpec, gbph: f64) -> Self {
        let reference_units = if spec.reference_throughput_gbph > 0.0 {
            gbph * (REFERENCE_WORKLOAD_GBPH / spec.reference_throughput_gbph)
        } else {
            gbph
        };
        for c in &mut self.compute {
            c.capacity_gbph = reference_units;
        }
        self
    }

    /// Splits the pool into `n` shard slices for a sharded fleet: capped
    /// compute node budgets are divided evenly (the first `cap % n`
    /// shards take one extra node), capped storage capacities are divided
    /// exactly by `n`, and uncapped resources stay uncapped — splitting
    /// infinity is still infinity. Prices, the chunk size and the uplink
    /// are carried whole per slice: in the single-fleet model every
    /// concurrent tenant already plans against the full uplink timetable,
    /// so a shard keeps that same view. Returns an empty vector for
    /// `n == 0`; every returned slice validates whenever `self` does.
    pub fn split(&self, n: usize) -> Vec<ResourcePool> {
        (0..n)
            .map(|shard| {
                let mut slice = self.clone();
                for c in &mut slice.compute {
                    if let Some(cap) = c.max_nodes {
                        c.max_nodes = Some(cap / n + usize::from(shard < cap % n));
                    }
                }
                for s in &mut slice.storage {
                    if let Some(cap) = s.capacity_gb {
                        s.capacity_gb = Some(cap / n as f64);
                    }
                }
                slice
            })
            .collect()
    }

    /// Basic consistency checks: non-empty, positive uplink, storage ties
    /// resolve.
    pub fn validate(&self) -> Result<(), String> {
        if self.compute.is_empty() {
            return Err("no compute resources available".into());
        }
        if self.storage.is_empty() {
            return Err("no storage resources available".into());
        }
        if self.uplink_gbph <= 0.0 {
            return Err("uplink bandwidth must be positive".into());
        }
        for s in &self.storage {
            if s.instance_disk && !self.compute.iter().any(|c| !c.is_local) {
                return Err(format!(
                    "storage `{}` lives on instance disks but no cloud compute resource is available",
                    s.name
                ));
            }
        }
        Ok(())
    }
}

impl ComputeResource {
    /// Effective per-node throughput (GB/h) for a workload whose measured
    /// m1.large throughput is `spec_reference_gbph`. Instances scale by
    /// their measured ratio to the reference workload; a non-positive spec
    /// throughput falls back to the calibration capacity.
    pub fn capacity_for_spec(&self, spec_reference_gbph: f64) -> f64 {
        if spec_reference_gbph > 0.0 {
            self.capacity_gbph * (spec_reference_gbph / REFERENCE_WORKLOAD_GBPH)
        } else {
            self.capacity_gbph
        }
    }

    /// Converts a catalog instance type.
    pub fn from_instance(i: &InstanceType) -> Self {
        Self {
            name: i.name.clone(),
            hourly_price: i.hourly_price,
            capacity_gbph: i.measured_throughput_gbph,
            max_nodes: i.max_instances,
            disk_gb: i.disk_gb,
            is_local: i.is_local(),
        }
    }
}

impl StorageResource {
    /// Converts a catalog storage service. Per-request prices are translated
    /// into per-GB prices assuming `chunk_mb` objects, the translation §4.2
    /// describes.
    pub fn from_storage(s: &StorageService, chunk_mb: f64) -> Self {
        let chunks_per_gb = if chunk_mb > 0.0 {
            1024.0 / chunk_mb
        } else {
            0.0
        };
        Self {
            name: s.name.clone(),
            cost_per_gb_hour: s.cost_per_gb_hour,
            put_cost_per_gb: s.cost_put * chunks_per_gb,
            get_cost_per_gb: s.cost_get * chunks_per_gb,
            capacity_gb: s.capacity_gb,
            instance_disk: s.kind == StorageKind::InstanceDisk,
            is_local: s.kind == StorageKind::Local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_from_aws_catalog_separates_compute_and_storage() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0);
        assert_eq!(pool.compute.len(), 3);
        assert_eq!(pool.storage.len(), 2);
        assert!(pool.validate().is_ok());
        let s3 = pool.storage_resource("S3").unwrap();
        // 1 MB chunks -> 1024 PUTs per GB at 1e-5 each.
        assert!((s3.put_cost_per_gb - 1024.0 * 1.0e-5).abs() < 1e-9);
        assert!(!s3.instance_disk);
        let disk = pool.storage_resource("EC2-disk").unwrap();
        assert_eq!(disk.cost_per_gb_hour, 0.0);
        assert!(disk.instance_disk);
    }

    #[test]
    fn hybrid_pool_includes_free_local_resources() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_with_local_cluster(5), 1.0);
        let local = pool.compute_resource("local").unwrap();
        assert!(local.is_local);
        assert_eq!(local.hourly_price, 0.0);
        assert_eq!(local.max_nodes, Some(5));
        let local_disk = pool.storage_resource("local-disk").unwrap();
        assert!(local_disk.is_local);
        // Local disks are not coupled to rented cloud instances.
        assert!(!local_disk.instance_disk);
    }

    #[test]
    fn restriction_helpers_filter_resources() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0)
            .with_compute_only(&["m1.large"])
            .with_storage_only(&["EC2-disk"]);
        assert_eq!(pool.compute.len(), 1);
        assert_eq!(pool.storage.len(), 1);
        assert!(pool.validate().is_ok());
    }

    #[test]
    fn validation_catches_empty_and_dangling() {
        let empty = ResourcePool::default();
        assert!(empty.validate().is_err());
        let mut pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0);
        // Instance-disk storage without any cloud compute resource is invalid.
        pool.compute.clear();
        pool.compute.push(ComputeResource {
            name: "local".into(),
            hourly_price: 0.0,
            capacity_gbph: 0.44,
            max_nodes: Some(5),
            disk_gb: 250.0,
            is_local: true,
        });
        assert!(pool.validate().unwrap_err().contains("instance disks"));
    }

    #[test]
    fn pool_from_descriptions_matches_catalog_route() {
        let cat = Catalog::aws_july_2011();
        let descriptions: Vec<ServiceDescription> = cat
            .instances
            .iter()
            .map(ServiceDescription::from_instance)
            .chain(cat.storages.iter().map(ServiceDescription::from_storage))
            .collect();
        let pool =
            ResourcePool::from_descriptions(&descriptions, cat.uplink_gb_per_hour(), 0.12, 1.0);
        assert_eq!(pool.compute.len(), 3);
        // Instances contribute their disks as storage too, plus S3 and EC2-disk.
        assert!(pool.storage.len() >= 2);
        assert!(pool.validate().is_ok());
        let large_disk = pool.storage_resource("m1.large").unwrap();
        assert!(large_disk.instance_disk);
    }

    #[test]
    fn split_divides_caps_and_keeps_uncapped_unbounded() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0)
            .with_compute_only(&["m1.large"])
            .with_compute_cap("m1.large", 10);
        let slices = pool.split(4);
        assert_eq!(slices.len(), 4);
        let caps: Vec<usize> = slices
            .iter()
            .map(|s| s.compute_resource("m1.large").unwrap().max_nodes.unwrap())
            .collect();
        // 10 = 3 + 3 + 2 + 2: even split, remainder to the first shards.
        assert_eq!(caps, vec![3, 3, 2, 2]);
        assert_eq!(caps.iter().sum::<usize>(), 10);
        for s in &slices {
            assert!(s.validate().is_ok());
            // Uncapped storage stays uncapped; uplink is carried whole.
            assert_eq!(
                s.storage_resource("S3").unwrap().capacity_gb,
                pool.storage_resource("S3").unwrap().capacity_gb
            );
            assert_eq!(s.uplink_gbph, pool.uplink_gbph);
        }
        // Degenerate counts.
        assert!(pool.split(0).is_empty());
        assert_eq!(pool.split(1), vec![pool.clone()]);
    }

    #[test]
    fn uplink_uses_catalog_bandwidth() {
        let pool = ResourcePool::from_catalog(&Catalog::aws_july_2011(), 1.0);
        assert!(pool.uplink_gbph > 6.0 && pool.uplink_gbph < 7.5);
        assert_eq!(pool.transfer_in_per_gb, 0.0);
        assert!((pool.transfer_out_per_gb - 0.12).abs() < 1e-12);
    }
}
