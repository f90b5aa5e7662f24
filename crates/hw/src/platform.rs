//! Platform comparison constants (paper Table I).

use std::fmt;

/// One row of the paper's platform-comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformSpec {
    /// Platform name.
    pub name: String,
    /// Process node, e.g. `"7nm"`.
    pub process: String,
    /// Clock description, e.g. `"1065MHz"` or `"200-300MHz"`.
    pub frequency: String,
    /// Computing-unit description.
    pub computing_units: String,
    /// Peak memory bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Thermal design power in watts.
    pub tdp_watts: f64,
}

impl PlatformSpec {
    /// Nvidia A100 (Table I row 1).
    pub fn nvidia_a100() -> Self {
        PlatformSpec {
            name: "Nvidia A100".into(),
            process: "7nm".into(),
            frequency: "1065MHz".into(),
            computing_units: "432 Tensor Cores".into(),
            bandwidth_gbps: 1935.0,
            tdp_watts: 300.0,
        }
    }

    /// Xilinx Alveo U280 (Table I row 2).
    pub fn alveo_u280() -> Self {
        PlatformSpec {
            name: "Xilinx Alveo U280".into(),
            process: "16nm".into(),
            frequency: "200-300MHz".into(),
            computing_units: "9024 DSPs".into(),
            bandwidth_gbps: 460.0,
            tdp_watts: 215.0,
        }
    }

    /// Xilinx Alveo U50 (Table I row 3).
    pub fn alveo_u50() -> Self {
        PlatformSpec {
            name: "Xilinx Alveo U50".into(),
            process: "16nm".into(),
            frequency: "200-300MHz".into(),
            computing_units: "5952 DSPs".into(),
            bandwidth_gbps: 201.0,
            tdp_watts: 75.0,
        }
    }

    /// All Table I rows in paper order.
    pub fn table1() -> Vec<PlatformSpec> {
        vec![
            PlatformSpec::nvidia_a100(),
            PlatformSpec::alveo_u280(),
            PlatformSpec::alveo_u50(),
        ]
    }
}

impl fmt::Display for PlatformSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<18} {:<8} {:<12} {:<18} {:>8.0} GB/s {:>6.0} W",
            self.name,
            self.process,
            self.frequency,
            self.computing_units,
            self.bandwidth_gbps,
            self.tdp_watts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_three_rows_in_order() {
        let t = PlatformSpec::table1();
        assert_eq!(t.len(), 3);
        assert_eq!(t[0].name, "Nvidia A100");
        assert_eq!(t[1].name, "Xilinx Alveo U280");
        assert_eq!(t[2].name, "Xilinx Alveo U50");
    }

    #[test]
    fn paper_constants() {
        let a100 = PlatformSpec::nvidia_a100();
        assert_eq!(a100.bandwidth_gbps, 1935.0);
        assert_eq!(a100.tdp_watts, 300.0);
        let u50 = PlatformSpec::alveo_u50();
        assert_eq!(u50.bandwidth_gbps, 201.0);
        assert_eq!(u50.tdp_watts, 75.0);
        let u280 = PlatformSpec::alveo_u280();
        assert_eq!(u280.bandwidth_gbps, 460.0);
        assert_eq!(u280.tdp_watts, 215.0);
    }

    #[test]
    fn bandwidth_ordering_favours_gpu() {
        let t = PlatformSpec::table1();
        assert!(t[0].bandwidth_gbps > t[1].bandwidth_gbps);
        assert!(t[1].bandwidth_gbps > t[2].bandwidth_gbps);
    }

    #[test]
    fn display_renders_row() {
        let s = PlatformSpec::nvidia_a100().to_string();
        assert!(s.contains("A100"));
        assert!(s.contains("1935"));
    }
}
