//! Fig. 6's CPU workload, checked: Eq. 4's tensor (no relinearization)
//! run once per 64-bit-word RNS tower of the paper's moduli — one
//! [`record_tensor`](crate::record_tensor) stream on its own
//! [`CpuBackend`](crate::CpuBackend) per tower, the towers spread over
//! threads by [`fan_out`](crate::fan_out) — exactly as the
//! `fig6_cpu_comparison` binary times it.

#[cfg(test)]
mod tests {
    use cofhee_arith::{rns::RnsBasis, Barrett128, ModRing};
    use cofhee_poly::naive::negacyclic_mul;

    use crate::backend::{CpuBackend, PolyBackend};
    use crate::keyswitch::record_tensor;
    use crate::stream::{fan_out, OpStream};
    use crate::CoreError;

    /// One tower of the CPU plan: its backend, its recorded tensor
    /// stream and the naive negacyclic tensor `[a₀b₀, a₀b₁ + a₁b₀, a₁b₁]`
    /// of the same random operands.
    struct Tower {
        q: u128,
        backend: CpuBackend,
        stream: OpStream,
        naive: Vec<Vec<u128>>,
    }

    /// The towers of `RnsBasis::for_total_bits(log_q, 64, n)`, each with
    /// seeded random operands.
    fn cpu_towers(log_q: u32, n: usize, mut seed: u128) -> Vec<Tower> {
        let basis = RnsBasis::for_total_bits(log_q, 64, n).unwrap();
        basis
            .moduli()
            .iter()
            .map(|&q| {
                let mut sample = || -> Vec<u128> {
                    (0..n)
                        .map(|_| {
                            seed = seed.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(11);
                            (seed >> 64) % q
                        })
                        .collect()
                };
                let (a, b) = ([sample(), sample()], [sample(), sample()]);
                let ring = Barrett128::new(q).unwrap();
                let mul = |x: &[u128], y: &[u128]| negacyclic_mul(&ring, x, y).unwrap();
                let middle: Vec<u128> = mul(&a[0], &b[1])
                    .iter()
                    .zip(mul(&a[1], &b[0]))
                    .map(|(&x, y)| ring.add(x, y))
                    .collect();
                let naive = vec![mul(&a[0], &b[0]), middle, mul(&a[1], &b[1])];
                Tower {
                    q,
                    backend: CpuBackend::new(q, n).unwrap(),
                    stream: record_tensor(n, a, b).unwrap(),
                    naive,
                }
            })
            .collect()
    }

    #[test]
    fn plans_match_paper_tower_counts() {
        // Section VI-B: SEAL splits 109 bits into two towers and 218
        // bits into four, every tower prime fitting a 64-bit word.
        for (log_q, towers) in [(109, 2), (218, 4)] {
            let plan = cpu_towers(log_q, 1 << 6, 1);
            assert_eq!(plan.len(), towers, "log q {log_q}");
            assert!(plan.iter().all(|t| t.q < 1 << 64), "log q {log_q}");
        }
    }

    #[test]
    fn tower_product_matches_naive_tensor() {
        for (log_q, n) in [(109, 64), (218, 128)] {
            for mut tower in cpu_towers(log_q, n, 0x5EED) {
                let outputs = tower.backend.execute_stream(&tower.stream).unwrap().outputs;
                assert_eq!(outputs, tower.naive, "log q {log_q}, q {}", tower.q);
            }
        }
    }

    #[test]
    fn threading_does_not_change_results() {
        let mut towers = cpu_towers(218, 128, 2);
        // Lanes within one tower's replay.
        for tower in &mut towers {
            for lanes in [2, 4, 8, 16] {
                let outputs = tower.backend.execute_stream_lanes(&tower.stream, lanes).unwrap();
                assert_eq!(outputs.outputs, tower.naive, "q {}, {lanes} lane(s)", tower.q);
            }
        }
        // Fig. 6's sweep: `t` threads run `min(t, towers)` tasks over
        // shares of the towers, each stream on `max(1, t / towers)` lanes.
        let count = towers.len();
        for threads in [2usize, 4, 8, 16] {
            let lanes = (threads / count).max(1);
            let per_task = count.div_ceil(threads.min(count));
            let mut outputs: Vec<_> = towers.iter().map(|_| Vec::new()).collect();
            let mut tasks: Vec<_> =
                towers.chunks_mut(per_task).zip(outputs.chunks_mut(per_task)).collect();
            fan_out(&mut tasks, |(share, out)| {
                for (tower, out) in share.iter_mut().zip(out.iter_mut()) {
                    *out =
                        tower.backend.execute_stream_lanes(&tower.stream, lanes).unwrap().outputs;
                }
            });
            for (tower, out) in towers.iter().zip(&outputs) {
                assert_eq!(*out, tower.naive, "q {}, {threads} thread(s)", tower.q);
            }
        }
    }

    #[test]
    fn foreign_ciphertexts_are_rejected() {
        // A stream recorded at another degree is refused by the tower's
        // backend; an operand of the wrong length is refused at record
        // time.
        let mut ours = cpu_towers(109, 64, 3);
        let theirs = cpu_towers(109, 32, 3);
        assert!(matches!(
            ours[0].backend.execute_stream(&theirs[0].stream),
            Err(CoreError::DegreeMismatch { device: 64, requested: 32 })
        ));
        let (full, short) = (vec![0u128; 64], vec![0u128; 32]);
        assert!(matches!(
            record_tensor(64, [full.clone(), full.clone()], [full, short]),
            Err(CoreError::BadOperandLength { expected: 64, found: 32 })
        ));
    }
}
