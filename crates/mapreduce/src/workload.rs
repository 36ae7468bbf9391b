//! MapReduce job specifications and workload generators.
//!
//! The paper's evaluation workload is a k-means clustering job from Apache
//! Mahout over 40 million randomly generated points (32 GB) plus 10,000
//! reference points (§6.1). [`Workload::KMeans32Gb`] reproduces that shape;
//! other constructors cover the variants used in individual experiments
//! (e.g. the small-reference-point variant of Figure 8 that processes at
//! 6.2 GB/h per node).

use serde::{Deserialize, Serialize};

/// Measured m1.large throughput (GB/h) of the *reference workload* — the
/// paper's k-means job — that every catalog instance's throughput figure was
/// calibrated against (§6.1, Figure 1). A [`JobSpec`]'s
/// `reference_throughput_gbph` is expressed on the same instance, so
/// [`JobSpec::throughput_scale`] converts between workload-specific and
/// catalog (reference-workload) throughput units. Both the planner's
/// capacity model and the execution simulator apply this same scale, which
/// is what keeps plans and simulated executions consistent.
pub const REFERENCE_INSTANCE_GBPH: f64 = 0.44;

/// Static description of a MapReduce job: data volumes and task structure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Job name used in reports.
    pub name: String,
    /// Total input size in GB.
    pub input_gb: f64,
    /// Input split size in MB (Hadoop default 64 MB).
    pub split_mb: f64,
    /// Ratio of map-output (shuffle) volume to input volume.
    pub map_output_ratio: f64,
    /// Ratio of final output volume to input volume.
    pub reduce_output_ratio: f64,
    /// Number of reduce tasks.
    pub reduce_tasks: usize,
    /// Per-node processing throughput in GB/h on the reference instance type
    /// (m1.large); other instance types scale by their measured throughput.
    pub reference_throughput_gbph: f64,
}

impl JobSpec {
    /// Number of map tasks (one per input split, last split may be partial).
    pub(crate) fn map_tasks(&self) -> usize {
        let split_gb = self.split_mb / 1024.0;
        if self.input_gb <= 0.0 || split_gb <= 0.0 {
            return 0;
        }
        (self.input_gb / split_gb).ceil() as usize
    }

    /// Total task count (map + reduce), the denominator of Figure 12(b).
    pub fn total_tasks(&self) -> usize {
        self.map_tasks() + self.reduce_tasks
    }

    /// Volume of intermediate (shuffle) data in GB.
    pub fn shuffle_gb(&self) -> f64 {
        self.input_gb * self.map_output_ratio
    }

    /// Volume of final output data in GB.
    pub fn output_gb(&self) -> f64 {
        self.input_gb * self.reduce_output_ratio
    }

    /// How much faster (or slower) this workload moves through a node than
    /// the reference k-means job: catalog throughputs are multiplied by this
    /// to get workload-effective rates. Non-positive reference throughput
    /// falls back to 1.0.
    pub fn throughput_scale(&self) -> f64 {
        if self.reference_throughput_gbph > 0.0 {
            self.reference_throughput_gbph / REFERENCE_INSTANCE_GBPH
        } else {
            1.0
        }
    }
}

/// Named workload presets used throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// The paper's main workload: k-means over 40 M points, 32 GB input,
    /// 10 k reference points, 0.44 GB/h per m1.large node.
    KMeans32Gb,
    /// The Figure 8 variant: 8 Mbit/s uplink scenario with a smaller
    /// reference-point set, processing at 6.2 GB/h per node.
    KMeansFastScan32Gb,
    /// Scaled-up analytic variants of Figure 9.
    KMeansScaled {
        /// Input size in GB (64, 128 or 256 in the paper).
        input_gb: u32,
    },
}

impl Workload {
    /// Materializes the preset into a [`JobSpec`].
    pub fn spec(self) -> JobSpec {
        match self {
            Workload::KMeans32Gb => JobSpec {
                name: "kmeans-32gb".into(),
                input_gb: 32.0,
                split_mb: 64.0,
                // k-means emits cluster assignments / centroid statistics —
                // tiny compared to the input.
                map_output_ratio: 0.02,
                reduce_output_ratio: 0.01,
                reduce_tasks: 16,
                reference_throughput_gbph: 0.44,
            },
            Workload::KMeansFastScan32Gb => JobSpec {
                name: "kmeans-fastscan-32gb".into(),
                input_gb: 32.0,
                split_mb: 64.0,
                map_output_ratio: 0.02,
                reduce_output_ratio: 0.01,
                reduce_tasks: 16,
                reference_throughput_gbph: 6.2,
            },
            Workload::KMeansScaled { input_gb } => JobSpec {
                name: format!("kmeans-{input_gb}gb"),
                input_gb: input_gb as f64,
                split_mb: 64.0,
                map_output_ratio: 0.02,
                reduce_output_ratio: 0.01,
                reduce_tasks: 16,
                reference_throughput_gbph: 0.44,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_32gb_matches_paper_parameters() {
        let spec = Workload::KMeans32Gb.spec();
        assert_eq!(spec.input_gb, 32.0);
        assert_eq!(spec.split_mb, 64.0);
        // 32 GB / 64 MB = 512 map tasks.
        assert_eq!(spec.map_tasks(), 512);
        assert!((spec.reference_throughput_gbph - 0.44).abs() < 1e-12);
    }

    #[test]
    fn fast_scan_variant_processes_faster() {
        let slow = Workload::KMeans32Gb.spec();
        let fast = Workload::KMeansFastScan32Gb.spec();
        assert!(fast.reference_throughput_gbph > 10.0 * slow.reference_throughput_gbph);
        assert_eq!(fast.map_tasks(), slow.map_tasks());
    }

    #[test]
    fn scaled_variants_scale_tasks_linearly() {
        let a = Workload::KMeansScaled { input_gb: 64 }.spec();
        let b = Workload::KMeansScaled { input_gb: 128 }.spec();
        assert_eq!(b.map_tasks(), 2 * a.map_tasks());
        assert!((b.shuffle_gb() - 2.0 * a.shuffle_gb()).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let mut spec = Workload::KMeans32Gb.spec();
        spec.input_gb = 0.0;
        assert_eq!(spec.map_tasks(), 0);
        spec.input_gb = 32.0;
        spec.split_mb = 0.0;
        assert_eq!(spec.map_tasks(), 0);
    }

    #[test]
    fn output_volumes_are_small_fraction_of_input() {
        let spec = Workload::KMeans32Gb.spec();
        assert!(spec.shuffle_gb() < spec.input_gb * 0.1);
        assert!(spec.output_gb() < spec.shuffle_gb() + 1e-9);
    }
}
