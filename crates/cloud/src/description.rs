//! Machine-readable service descriptions (§4.2, Figure 3).
//!
//! The paper feeds Conductor a human-readable XML description of each cloud
//! service ("these descriptions could be published by the providers
//! themselves or by third parties"). We keep the same property set —
//! `cost_get`, `cost_put`, `cost_tstore`, `can_compute`, `storage_capacity` —
//! but express it through serde, so descriptions can be read from JSON files
//! or constructed programmatically, and convert to/from the typed catalog
//! entries of [`crate::catalog`].

use crate::catalog::{InstanceType, StorageKind, StorageService};
use serde::{Deserialize, Serialize};

/// A generic description of a cloud service offering, mirroring the paper's
/// XML property list (Figure 3 shows the S3 example).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceDescription {
    /// Service name, e.g. `"S3"` or `"EC2 m1.large"`.
    pub name: String,
    /// Cost per GET operation in USD.
    #[serde(default)]
    pub cost_get: f64,
    /// Cost per PUT operation in USD.
    #[serde(default)]
    pub cost_put: f64,
    /// Cost per GB-hour of stored data in USD (the paper's `cost_tstore`).
    #[serde(default)]
    pub cost_tstore: f64,
    /// Whether the service can run computation.
    #[serde(default)]
    pub can_compute: bool,
    /// Storage capacity in GB; `-1` encodes "unlimited", as in the paper's
    /// S3 description.
    #[serde(default = "default_capacity")]
    pub storage_capacity: i64,
    /// Hourly price of one compute unit/instance (0 for pure storage
    /// services and customer-owned machines).
    #[serde(default)]
    pub hourly_price: f64,
    /// Processing capacity of one node in GB/h (0 for pure storage services).
    #[serde(default)]
    pub capacity_gbph: f64,
    /// Maximum number of instances that can be allocated (`-1` = unlimited).
    #[serde(default = "default_capacity")]
    pub max_instances: i64,
}

fn default_capacity() -> i64 {
    -1
}

impl ServiceDescription {
    /// Builds a description from a typed storage service.
    pub fn from_storage(s: &StorageService) -> Self {
        Self {
            name: s.name.clone(),
            cost_get: s.cost_get,
            cost_put: s.cost_put,
            cost_tstore: s.cost_per_gb_hour,
            can_compute: false,
            storage_capacity: s.capacity_gb.map(|c| c as i64).unwrap_or(-1),
            hourly_price: 0.0,
            capacity_gbph: 0.0,
            max_instances: -1,
        }
    }

    /// Builds a description from a typed instance type (a compute service
    /// that also offers its virtual disk as storage — the resource overlap of
    /// §4.6).
    pub fn from_instance(i: &InstanceType) -> Self {
        Self {
            name: i.name.clone(),
            cost_get: 0.0,
            cost_put: 0.0,
            cost_tstore: 0.0,
            can_compute: true,
            storage_capacity: i.disk_gb as i64,
            hourly_price: i.hourly_price,
            capacity_gbph: i.measured_throughput_gbph,
            max_instances: i.max_instances.map(|m| m as i64).unwrap_or(-1),
        }
    }

    /// Converts a compute-capable description back into an [`InstanceType`].
    /// Returns `None` for pure storage services.
    pub fn to_instance(&self) -> Option<InstanceType> {
        if !self.can_compute {
            return None;
        }
        Some(InstanceType {
            name: self.name.clone(),
            ecu: 0.0,
            memory_gb: 0.0,
            disk_gb: if self.storage_capacity < 0 {
                0.0
            } else {
                self.storage_capacity as f64
            },
            hourly_price: self.hourly_price,
            measured_throughput_gbph: self.capacity_gbph,
            max_instances: if self.max_instances < 0 {
                None
            } else {
                Some(self.max_instances as usize)
            },
        })
    }

    /// Converts a storage-capable description back into a [`StorageService`].
    /// Returns `None` when the service offers no storage at all.
    pub fn to_storage(&self) -> Option<StorageService> {
        if self.storage_capacity == 0 {
            return None;
        }
        let kind = if self.can_compute {
            StorageKind::InstanceDisk
        } else if self.hourly_price == 0.0 && self.cost_tstore == 0.0 {
            StorageKind::Local
        } else {
            StorageKind::ObjectStore
        };
        Some(StorageService {
            name: self.name.clone(),
            kind,
            cost_per_gb_hour: self.cost_tstore,
            cost_put: self.cost_put,
            cost_get: self.cost_get,
            capacity_gb: if self.storage_capacity < 0 {
                None
            } else {
                Some(self.storage_capacity as f64)
            },
            throughput_mbps: 15.0,
            replication: 1,
        })
    }

    /// Parses a description from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Serializes the description to pretty-printed JSON (the publishable
    /// artifact a provider or third party would distribute).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("description serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

    /// S3 as a provider would publish it (Figure 3).
    fn s3_description() -> ServiceDescription {
        ServiceDescription::from_storage(Catalog::aws_july_2011().storage("S3").unwrap())
    }

    #[test]
    fn json_roundtrip() {
        let d = s3_description();
        let json = d.to_json();
        let back = ServiceDescription::from_json(&json).unwrap();
        assert_eq!(d, back);
    }

    #[test]
    fn partial_json_uses_defaults() {
        let d = ServiceDescription::from_json(r#"{"name": "minimal"}"#).unwrap();
        assert_eq!(d.name, "minimal");
        assert_eq!(d.cost_put, 0.0);
        assert_eq!(d.storage_capacity, -1);
        assert!(!d.can_compute);
    }

    #[test]
    fn instance_roundtrips_through_description() {
        let cat = Catalog::aws_with_local_cluster(5);
        let local = cat.instance("local").unwrap();
        let d = ServiceDescription::from_instance(local);
        assert!(d.can_compute);
        let back = d.to_instance().unwrap();
        assert_eq!(back.name, "local");
        assert_eq!(back.max_instances, Some(5));
        assert!((back.measured_throughput_gbph - 0.44).abs() < 1e-12);
    }

    #[test]
    fn storage_roundtrips_through_description() {
        let cat = Catalog::aws_july_2011();
        let s3 = cat.storage("S3").unwrap();
        let d = ServiceDescription::from_storage(s3);
        let back = d.to_storage().unwrap();
        assert_eq!(back.kind, StorageKind::ObjectStore);
        assert!((back.cost_per_gb_hour - s3.cost_per_gb_hour).abs() < 1e-15);
        assert_eq!(back.capacity_gb, None);
    }

    #[test]
    fn pure_storage_description_is_not_an_instance() {
        let d = s3_description();
        assert!(d.to_instance().is_none());
        assert!(d.to_storage().is_some());
    }

    #[test]
    fn compute_description_yields_instance_disk_storage() {
        let cat = Catalog::aws_july_2011();
        let large = cat.instance("m1.large").unwrap();
        let d = ServiceDescription::from_instance(large);
        let storage = d.to_storage().unwrap();
        assert_eq!(storage.kind, StorageKind::InstanceDisk);
        assert_eq!(storage.capacity_gb, Some(850.0));
    }
}
