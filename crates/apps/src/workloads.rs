//! The end-to-end application workloads of Table X.
//!
//! Section VI-C of the paper: "the execution runtime was assessed in
//! relation to the number of operations involved in the application" —
//! ciphertext-ciphertext additions, ciphertext-plaintext multiplications,
//! and ciphertext-ciphertext multiplications with relinearization. These
//! records hold the paper's exact operation mixes.

/// An encrypted application's homomorphic operation mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Application name.
    pub name: &'static str,
    /// Ciphertext + ciphertext additions.
    pub ct_ct_add: u64,
    /// Ciphertext × plaintext multiplications.
    pub ct_pt_mul: u64,
    /// Ciphertext × ciphertext multiplications, each followed by a
    /// relinearization.
    pub ct_ct_mul_relin: u64,
}

impl Workload {
    /// CryptoNets encrypted neural-network inference (Section VI-C):
    /// "457,550 ct-ct additions, 449,000 ct-pt multiplications, and
    /// 10,200 ct-ct multiplications … 10,200 relinearization operations".
    pub fn cryptonets() -> Self {
        Self { name: "CryptoNets", ct_ct_add: 457_550, ct_pt_mul: 449_000, ct_ct_mul_relin: 10_200 }
    }

    /// Privacy-preserving logistic-regression inference (the paper's
    /// \[39\]): "168,298 ct-ct additions, 49,500 ct-pt multiplications, and
    /// 128,700 combined ct-ct multiplications and relinearizations".
    pub fn logistic_regression() -> Self {
        Self {
            name: "Logistic Regression",
            ct_ct_add: 168_298,
            ct_pt_mul: 49_500,
            ct_ct_mul_relin: 128_700,
        }
    }

    /// The paper's full Table X application set, in table order — the
    /// single source every consumer (the `table10_apps` bench, the farm
    /// replays, the `farm_saturation` bench) iterates instead of
    /// duplicating the list.
    pub fn all() -> Vec<Self> {
        vec![Self::cryptonets(), Self::logistic_regression()]
    }

    /// Total operation count.
    pub fn total_ops(&self) -> u64 {
        self.ct_ct_add + self.ct_pt_mul + self.ct_ct_mul_relin
    }

    /// Fraction of operations that are multiplications with
    /// relinearization — the share hardware acceleration leverages most.
    pub fn mul_relin_fraction(&self) -> f64 {
        self.ct_ct_mul_relin as f64 / self.total_ops() as f64
    }
}

/// The paper's Table X reference results (CPU and CoFHEE seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table10Reference {
    /// Application name.
    pub name: &'static str,
    /// Paper's CPU runtime, seconds.
    pub cpu_s: f64,
    /// Paper's CoFHEE runtime, seconds.
    pub cofhee_s: f64,
}

impl Table10Reference {
    /// Both Table X rows.
    pub fn all() -> Vec<Self> {
        vec![
            Self { name: "CryptoNets", cpu_s: 197.0, cofhee_s: 88.35 },
            Self { name: "Logistic Regression", cpu_s: 550.25, cofhee_s: 377.6 },
        ]
    }

    /// The paper's speedup column.
    pub fn speedup(&self) -> f64 {
        self.cpu_s / self.cofhee_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_mixes_match_section6c() {
        let cn = Workload::cryptonets();
        assert_eq!(cn.ct_ct_add, 457_550);
        assert_eq!(cn.ct_pt_mul, 449_000);
        assert_eq!(cn.ct_ct_mul_relin, 10_200);
        let lr = Workload::logistic_regression();
        assert_eq!(lr.ct_ct_add, 168_298);
        assert_eq!(lr.ct_pt_mul, 49_500);
        assert_eq!(lr.ct_ct_mul_relin, 128_700);
    }

    #[test]
    fn logreg_is_multiplication_heavy() {
        // The structural reason logistic regression speeds up *less*
        // than CryptoNets despite more multiplications: its mul share is
        // large but so is its total runtime on both platforms.
        let cn = Workload::cryptonets();
        let lr = Workload::logistic_regression();
        assert!(lr.mul_relin_fraction() > 10.0 * cn.mul_relin_fraction());
    }

    #[test]
    fn all_covers_the_table_x_set_in_order() {
        let all = Workload::all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], Workload::cryptonets());
        assert_eq!(all[1], Workload::logistic_regression());
    }

    #[test]
    fn table10_speedups() {
        let refs = Table10Reference::all();
        assert!((refs[0].speedup() - 2.23).abs() < 0.01);
        assert!((refs[1].speedup() - 1.46).abs() < 0.01);
    }
}
