//! Device cards for the GPUs in the paper's Table I.

/// Static description of a GPU used by the analytic performance model.
///
/// Values for the three built-in cards come from Table I of the paper
/// (single-precision peak, memory capacity, memory bandwidth); the
/// microarchitectural knobs (SM count, launch overhead) are taken from the
/// public specifications of the same parts.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. "P100-SXM2".
    pub name: String,
    /// Peak single-precision throughput in TFLOP/s.
    pub sp_tflops: f64,
    /// Device memory capacity in GiB.
    pub mem_gib: f64,
    /// Memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Number of streaming multiprocessors (parallelism the model must fill).
    pub sm_count: usize,
    /// Fixed overhead per kernel launch in microseconds. This is what makes
    /// very fine micro-batch divisions unprofitable.
    pub launch_overhead_us: f64,
}

impl DeviceSpec {
    /// Peak single-precision throughput in FLOP/µs.
    pub fn flops_per_us(&self) -> f64 {
        self.sp_tflops * 1e12 / 1e6
    }

    /// Memory bandwidth in bytes/µs.
    pub fn bytes_per_us(&self) -> f64 {
        self.mem_bw_gbps * 1e9 / 1e6
    }

    /// Device memory capacity in bytes.
    pub fn mem_bytes(&self) -> usize {
        (self.mem_gib * 1024.0 * 1024.0 * 1024.0) as usize
    }
}

/// NVIDIA Tesla K80 (one GK210 die of the board, as frameworks see it).
/// Table I lists the dual-die board at 8.73 SP TFlop/s, 24 GiB, 480 GB/s;
/// a single CUDA device is half of that.
pub fn k80() -> DeviceSpec {
    DeviceSpec {
        name: "K80".to_string(),
        sp_tflops: 4.37,
        mem_gib: 12.0,
        mem_bw_gbps: 240.0,
        sm_count: 13,
        launch_overhead_us: 12.0,
    }
}

/// NVIDIA Tesla P100-SXM2 (Table I: 10.6 SP TFlop/s, 16 GiB HBM2, 732 GB/s).
pub fn p100_sxm2() -> DeviceSpec {
    DeviceSpec {
        name: "P100-SXM2".to_string(),
        sp_tflops: 10.6,
        mem_gib: 16.0,
        mem_bw_gbps: 732.0,
        sm_count: 56,
        launch_overhead_us: 8.0,
    }
}

/// NVIDIA Tesla V100-SXM2 (Table I: 15.7 SP TFlop/s, 16 GiB HBM2, 900 GB/s).
pub fn v100_sxm2() -> DeviceSpec {
    DeviceSpec {
        name: "V100-SXM2".to_string(),
        sp_tflops: 15.7,
        mem_gib: 16.0,
        mem_bw_gbps: 900.0,
        sm_count: 80,
        launch_overhead_us: 6.0,
    }
}

/// All three evaluation devices, in Table I order.
pub fn all_devices() -> Vec<DeviceSpec> {
    vec![k80(), p100_sxm2(), v100_sxm2()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let d = p100_sxm2();
        assert!((d.flops_per_us() - 10.6e6).abs() < 1.0);
        assert!((d.bytes_per_us() - 732e3).abs() < 1.0);
        assert_eq!(d.mem_bytes(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn devices_are_ordered_by_generation() {
        let ds = all_devices();
        assert_eq!(ds.len(), 3);
        assert!(ds[0].sp_tflops < ds[1].sp_tflops && ds[1].sp_tflops < ds[2].sp_tflops);
        assert!(ds[0].mem_bw_gbps < ds[1].mem_bw_gbps && ds[1].mem_bw_gbps < ds[2].mem_bw_gbps);
    }

    #[test]
    fn newer_devices_launch_faster() {
        assert!(k80().launch_overhead_us > p100_sxm2().launch_overhead_us);
        assert!(p100_sxm2().launch_overhead_us > v100_sxm2().launch_overhead_us);
    }

    /// Pin every card to the paper's Table I. `table1_devices` prints these
    /// specs and Fig. 10 times AlexNet on all three cards, so a silent edit
    /// here would skew both while all behavioural tests kept passing.
    #[test]
    fn k80_matches_table_i() {
        // Table I lists the dual-die K80 board: 8.73 SP TFlop/s, 24 GiB,
        // 480 GB/s. The card models the single GK210 die frameworks see,
        // i.e. half of each board figure (the die TFlop/s is rounded to
        // three significant digits: 8.73 / 2 = 4.365 ≈ 4.37).
        let d = k80();
        assert_eq!(d.name, "K80");
        assert!((2.0 * d.sp_tflops - 8.73).abs() < 0.02);
        assert!((2.0 * d.mem_gib - 24.0).abs() < 1e-9);
        assert!((2.0 * d.mem_bw_gbps - 480.0).abs() < 1e-9);
        assert_eq!(d.sm_count, 13);
    }

    #[test]
    fn p100_matches_table_i() {
        let d = p100_sxm2();
        assert_eq!(d.name, "P100-SXM2");
        assert!((d.sp_tflops - 10.6).abs() < 1e-9);
        assert!((d.mem_gib - 16.0).abs() < 1e-9);
        assert!((d.mem_bw_gbps - 732.0).abs() < 1e-9);
        assert_eq!(d.sm_count, 56);
    }

    #[test]
    fn v100_matches_table_i() {
        let d = v100_sxm2();
        assert_eq!(d.name, "V100-SXM2");
        assert!((d.sp_tflops - 15.7).abs() < 1e-9);
        assert!((d.mem_gib - 16.0).abs() < 1e-9);
        assert!((d.mem_bw_gbps - 900.0).abs() < 1e-9);
        assert_eq!(d.sm_count, 80);
    }
}
