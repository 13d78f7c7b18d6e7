//! Property tests: any recorded `OpStream`, executed by either backend,
//! is bit-identical to an oracle that is not the code under test — a
//! test-local interpreter of the recorded nodes over the strict kernels
//! (`cofhee_poly::ntt`, the role `cofhee_poly` documents as "fallback +
//! oracle") and `Barrett128` scalar arithmetic. It shares no code with
//! the Harvey plan `CpuBackend` replays on, nor with the chip's FIFO
//! scheduler — across random programs, 60- and 109-bit moduli, and both
//! the silicon and a custom microarchitecture.
//!
//! This is the contract the stream API stands on: liveness-driven
//! freeing, lazy reduction, batching, FIFO scheduling, bank allocation,
//! DMA overlap and per-limb thread dispatch may rearrange *when* and
//! *where* work happens, but never *what* it computes.

use cofhee::arith::primes::ntt_prime;
use cofhee::arith::{Barrett128, ModRing};
use cofhee::core::{
    record_key_switch, ChipBackend, CpuBackend, KeyPair, KeySwitchKeys, Limb, OpStream,
    PolyBackend, StreamExecutor, StreamHandle, StreamJob, StreamOp,
};
use cofhee::opt::{optimize, OptLevel};
use cofhee::poly::ntt::{forward_inplace, inverse_inplace, NttTables};
use cofhee::sim::ChipConfig;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const N: usize = 32;

fn modulus() -> u128 {
    ntt_prime(60, N).unwrap()
}

/// The chip cases also stream at the chip's native 109 bits: at 60 the
/// simulator computes on its word-width kernel, at 109 on the 128-bit
/// arithmetic in place in the simulated SRAM.
fn chip_modulus(wide: bool) -> u128 {
    if wide {
        ntt_prime(109, N).unwrap()
    } else {
        modulus()
    }
}

/// A non-silicon microarchitecture: timing shifts, values must not.
fn custom_config() -> ChipConfig {
    ChipConfig {
        stream_burst: 8,
        burst_gap: 3,
        pass_setup: 11,
        stage_overhead: 9,
        ..ChipConfig::silicon()
    }
}

/// One random program step: (op selector, operand picks, constant —
/// which doubles as the accumulator pick of a multiply-accumulate).
type Step = (usize, usize, usize, u128);

/// Records the random program as a stream; every step's operands are
/// earlier results, so arbitrary `Step` lists form valid DAGs over all
/// eight compute kinds.
fn record(inputs: &[Vec<u128>], steps: &[Step]) -> OpStream {
    let mut st = OpStream::new(N);
    let mut handles: Vec<StreamHandle> =
        inputs.iter().map(|p| st.upload(p.clone()).unwrap()).collect();
    for &(kind, x, y, c) in steps {
        let hx = handles[x % handles.len()];
        let hy = handles[y % handles.len()];
        let h = match kind % 8 {
            0 => st.ntt(hx),
            1 => st.intt(hx),
            2 => st.hadamard(hx, hy),
            3 => st.pointwise_add(hx, hy),
            4 => st.pointwise_sub(hx, hy),
            5 => st.scalar_mul(hx, c),
            6 => st.hadamard_intt(hx, hy),
            _ => st.hadamard_add(hx, hy, handles[c as usize % handles.len()]),
        }
        .unwrap();
        handles.push(h);
    }
    // Download a spread of results: first input, a middle value, the
    // final result.
    let picks = [handles[0], handles[handles.len() / 2], *handles.last().unwrap()];
    for h in picks {
        st.output(h).unwrap();
    }
    st
}

/// Ground truth: the recorded nodes interpreted one by one over the
/// strict kernels, every value kept canonical.
fn oracle(q: u128, stream: &OpStream) -> Vec<Vec<u128>> {
    let ring = Barrett128::new(q).unwrap();
    let tables = NttTables::new(&ring, N).unwrap();
    let forward = |mut v: Vec<u128>| {
        forward_inplace(&ring, &mut v, &tables).unwrap();
        v
    };
    let inverse = |mut v: Vec<u128>| {
        inverse_inplace(&ring, &mut v, &tables).unwrap();
        v
    };
    let zip = |x: &[u128], y: &[u128], f: &dyn Fn(u128, u128) -> u128| -> Vec<u128> {
        x.iter().zip(y).map(|(&a, &b)| f(a, b)).collect()
    };
    let (add, sub, mul) = (|a, b| ring.add(a, b), |a, b| ring.sub(a, b), |a, b| ring.mul(a, b));
    let mut vals: Vec<Vec<u128>> = Vec::with_capacity(stream.len());
    for op in stream.nodes() {
        let at = |h: &StreamHandle| &vals[h.index()];
        let v = match op {
            StreamOp::Upload(p) => p.words().unwrap().iter().map(|&c| ring.from_u128(c)).collect(),
            StreamOp::Input(_) => unreachable!("the random programs hold nothing resident"),
            StreamOp::Ntt(x) => forward(at(x).clone()),
            StreamOp::Intt(x) => inverse(at(x).clone()),
            StreamOp::Hadamard(x, y) => zip(at(x), at(y), &mul),
            StreamOp::HadamardIntt(x, y) => inverse(zip(at(x), at(y), &mul)),
            StreamOp::HadamardAdd(x, y, acc) => zip(&zip(at(x), at(y), &mul), at(acc), &add),
            StreamOp::PointwiseAdd(x, y) => zip(at(x), at(y), &add),
            StreamOp::PointwiseSub(x, y) => zip(at(x), at(y), &sub),
            StreamOp::ScalarMul(x, c) => {
                let c = ring.from_u128(*c);
                at(x).iter().map(|&a| ring.mul(a, c)).collect()
            }
        };
        vals.push(v);
    }
    stream.outputs().iter().map(|h| vals[h.index()].clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    // Stream execution ≡ the strict-kernel oracle, on both backends, for
    // arbitrary recorded programs.
    #[test]
    fn any_stream_is_bit_identical_to_the_strict_kernel_oracle(
        inputs in pvec(pvec(any::<u128>(), N), 3),
        steps in pvec((any::<usize>(), any::<usize>(), any::<usize>(), any::<u128>()), 12),
        custom in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let q = chip_modulus(wide);
        let config = if custom { custom_config() } else { ChipConfig::silicon() };
        let stream = record(&inputs, &steps);
        let truth = oracle(q, &stream);

        // The CPU replay: the Harvey plan at the modulus width, lazy
        // reduction, buffers recycled by liveness.
        let mut cpu = CpuBackend::new(q, N).unwrap();
        prop_assert_eq!(&cpu.execute_stream(&stream).unwrap().outputs, &truth);

        // The chip: FIFO batches, bank allocation, DMA overlap — values
        // must still match exactly.
        let mut chip = ChipBackend::connect(config, q, N).unwrap();
        prop_assert_eq!(&chip.execute_stream(&stream).unwrap().outputs, &truth);
    }

    // The stream-compiler contract: at every opt level the optimized
    // stream is bit-identical to the recorded one, on both the CPU
    // reference and the simulated chip, for arbitrary programs — and
    // never costs more ops than it started with.
    #[test]
    fn optimized_streams_are_bit_identical_to_recorded(
        inputs in pvec(pvec(any::<u128>(), N), 3),
        steps in pvec((any::<usize>(), any::<usize>(), any::<usize>(), any::<u128>()), 16),
        wide in any::<bool>(),
    ) {
        let q = chip_modulus(wide);
        let stream = record(&inputs, &steps);

        let mut cpu = CpuBackend::new(q, N).unwrap();
        let truth = cpu.execute_stream(&stream).unwrap().outputs;

        for level in [OptLevel::O0, OptLevel::O1] {
            let (opt, stats) = optimize(&stream, level).unwrap();
            prop_assert!(opt.len() <= stream.len(), "{level}: optimization grew the stream");
            if level == OptLevel::O0 {
                prop_assert!(stats.ops_out == stats.ops_in, "O0 is identity");
            } else {
                prop_assert!(stats.ops_out <= stats.ops_in, "{}: op count went up", level);
            }

            let mut cpu = CpuBackend::new(q, N).unwrap();
            let on_cpu = cpu.execute_stream(&opt).unwrap();
            prop_assert!(on_cpu.outputs == truth, "{level} on cpu diverged");

            let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
            let on_chip = chip.execute_stream(&opt).unwrap();
            prop_assert!(on_chip.outputs == truth, "{level} on chip diverged");
        }
    }

    // Parallel limb dispatch returns each stream's own results, in job
    // order, bit-identical to executing the limbs one at a time.
    #[test]
    fn parallel_dispatch_matches_sequential_per_limb(
        inputs in pvec(pvec(any::<u128>(), N), 2),
        steps in pvec((any::<usize>(), any::<usize>(), any::<usize>(), any::<u128>()), 6),
    ) {
        let limb_bits = [59u32, 60, 61];
        let stream = record(&inputs, &steps);
        let mut backends: Vec<CpuBackend> = limb_bits
            .iter()
            .map(|&bits| CpuBackend::new(ntt_prime(bits, N).unwrap(), N).unwrap())
            .collect();
        let jobs: Vec<StreamJob<'_>> = backends
            .iter_mut()
            .map(|be| StreamJob { backend: be, stream: &stream })
            .collect();
        let fanned = StreamExecutor::run_parallel(jobs).unwrap();
        for (i, &bits) in limb_bits.iter().enumerate() {
            let mut seq = CpuBackend::new(ntt_prime(bits, N).unwrap(), N).unwrap();
            let expect = seq.execute_stream(&stream).unwrap();
            prop_assert_eq!(&fanned[i].outputs, &expect.outputs);
        }
    }
}

/// Buffers out of a CPU backend's stock: what it stores, plus whatever a
/// replay failed to give back.
fn buffers_out(be: &CpuBackend) -> u64 {
    let stock = be.pool_stats();
    stock.hits + stock.misses - stock.recycled
}

/// Replays `build(backend)`'s stream on a fresh backend at each lane
/// count and holds it to the one-lane replay: the same outputs and
/// `OpReport`, every buffer back in the stock, and a peak live set (on a
/// fresh backend every pool miss is one more buffer live at once) at
/// most `5 · lanes` buffers above the one-lane figure — the wave, and the
/// `4 · lanes` nodes the walk may run past the oldest one it stepped
/// over. Then the same stream with a freed input
/// consumed at its very end: the error is the in-order replay's and the
/// stock is back where it started.
fn assert_lanes_agree(q: u128, build: &dyn Fn(&mut CpuBackend) -> OpStream) {
    let mut one_lane = None;
    for lanes in [1usize, 2, 3, 8] {
        let mut be = CpuBackend::new(q, N).unwrap();
        let stream = build(&mut be);
        let (stored, made) = (buffers_out(&be), be.pool_stats().misses);
        let outputs = be.execute_stream_lanes(&stream, lanes).unwrap().outputs;
        assert_eq!(buffers_out(&be), stored, "{lanes} lanes left a buffer out");
        let peak = be.pool_stats().misses - made;
        let (want, report, base) = one_lane.get_or_insert((outputs.clone(), be.report(), peak));
        assert_eq!(&outputs, &*want, "{lanes} lanes changed a value");
        assert_eq!(be.report(), *report, "{lanes} lanes changed the op counts");
        assert!(peak <= *base + 5 * lanes as u64, "{lanes} lanes held {peak}, one lane {base}");
        if lanes == 1 {
            assert_eq!(outputs, be.execute_stream(&stream).unwrap().outputs);
        }

        let mut failing = stream.clone();
        let gone = be.upload(&vec![1; N]).unwrap();
        be.free(gone);
        let (bad, last) = (failing.input(gone), failing.outputs()[0]);
        let tail = failing.hadamard(last, bad).unwrap();
        failing.output(tail).unwrap();
        let err = be.execute_stream_lanes(&failing, lanes).unwrap_err();
        assert_eq!(err.to_string(), be.execute_stream(&failing).unwrap_err().to_string());
        assert_eq!(buffers_out(&be), stored, "{lanes} lanes left a buffer out on failure");
    }
}

/// A lone stream replayed two, three or eight ready nodes at a time is
/// the in-order replay: both key-switch forms here, the random programs
/// in the property below.
#[test]
fn a_key_switch_replays_identically_at_every_lane_count() {
    const DIGITS: u128 = 7;
    let q = chip_modulus(true);
    let poly = |seed: u128| -> Vec<u128> { (0..N as u128).map(|i| (i * 131 + seed) % q).collect() };
    let limb = |seed: u128| Limb::new(q, poly(seed)).unwrap();
    let digits: Vec<_> = (0..DIGITS).map(limb).collect();
    let key: Vec<KeyPair> = (0..DIGITS).map(|d| (limb(100 + d), limb(200 + d))).collect();
    assert_lanes_agree(q, &|_| {
        let mut st = OpStream::new(N);
        record_key_switch(&mut st, &digits, KeySwitchKeys::Inline(&key), [poly(50), poly(51)])
            .unwrap();
        st
    });
    assert_lanes_agree(q, &|be| {
        let resident: Vec<_> =
            key.iter().map(|(k0, k1)| (be.upload(k0).unwrap(), be.upload(k1).unwrap())).collect();
        let mut st = OpStream::new(N);
        let keys = KeySwitchKeys::Resident(&resident);
        record_key_switch(&mut st, &digits, keys, [poly(50), poly(51)]).unwrap();
        st
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_stream_replays_identically_at_every_lane_count(
        inputs in pvec(pvec(any::<u128>(), N), 3),
        steps in pvec((any::<usize>(), any::<usize>(), any::<usize>(), any::<u128>()), 16),
        wide in any::<bool>(),
    ) {
        assert_lanes_agree(chip_modulus(wide), &|_| record(&inputs, &steps));
    }
}

/// Deterministic spot check that chip stream telemetry reports the
/// overlap the property tests ignore (values only there).
#[test]
fn chip_stream_reports_overlap_for_the_tensor_shape() {
    let q = modulus();
    let mut st = OpStream::new(N);
    let polys: Vec<Vec<u128>> =
        (0..4u128).map(|s| (0..N as u128).map(|i| (i * 37 + s) % q).collect()).collect();
    let mut ntts: Vec<StreamHandle> = Vec::with_capacity(4);
    for p in &polys {
        let up = st.upload(p.clone()).unwrap();
        ntts.push(st.ntt(up).unwrap());
    }
    let t0 = st.hadamard(ntts[0], ntts[2]).unwrap();
    let x01 = st.hadamard(ntts[0], ntts[3]).unwrap();
    let x10 = st.hadamard(ntts[1], ntts[2]).unwrap();
    let t1 = st.pointwise_add(x01, x10).unwrap();
    let t2 = st.hadamard(ntts[1], ntts[3]).unwrap();
    for t in [t0, t1, t2] {
        let r = st.intt(t).unwrap();
        st.output(r).unwrap();
    }
    let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
    let report = chip.execute_stream(&st).unwrap().report;
    assert!(report.overlapped_cycles < report.serial_cycles, "{report:?}");
}
