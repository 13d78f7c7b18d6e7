//! The allocation-counting harness behind the zero-alloc claim: a
//! counting `#[global_allocator]` proves — not asserts — that a warmed
//! [`CpuBackend`] runs the entire non-download op set with **zero**
//! heap allocations, and that [`ChipBackend`] staging (upload/free)
//! does the same.
//!
//! Methodology:
//!
//! * The wrapper counts every `alloc`/`alloc_zeroed`/`realloc`; the
//!   steady-state window is the delta across `STEADY_ITERS` full
//!   iterations after two warm-up iterations (warm-up populates the
//!   twiddle cache, grows the handle map to capacity, and stocks the
//!   [`cofhee_core::PoolStats`]-tracked buffer pool — two rounds, not
//!   one, because the pool only learns the high-water buffer count
//!   after a complete first pass).
//! * [`CpuBackend`] is checked at a small degree and at `n = 2^13`,
//!   the degree the end-to-end benchmark runs: its kernels never spawn
//!   threads, so the claim holds at every degree.
//! * A warmed [`ChipBackend::execute_stream`] is held to a ledger too:
//!   the simulated die computes in place in its SRAM, so a stream costs
//!   its output vectors plus the scheduler's own few bookkeeping vectors
//!   — the same count at every degree and for either modulus width,
//!   nothing per coefficient and nothing per command.
//! * A warmed [`CpuBackend::execute_stream`] has a ledger as well: the
//!   replay frees each handle after its last consumer, so a
//!   key-switch-shaped stream of 46 buffer-producing nodes runs out of
//!   the 5 pool buffers of its live set and allocates its outputs plus
//!   the replay's three bookkeeping vectors.
//! * Everything runs inside ONE `#[test]` so no concurrent libtest
//!   thread pollutes the process-global counter.
//!
//! `cofhee_core` itself forbids `unsafe_code`; this harness is a
//! separate crate root and needs `unsafe` only for the `GlobalAlloc`
//! shim around [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cofhee_arith::primes::ntt_prime;
use cofhee_core::{
    record_key_switch, ChipBackend, CpuBackend, KeySwitchKeys, OpStream, PolyBackend, PolyHandle,
};
use cofhee_sim::ChipConfig;

/// Counts allocation events; forwards everything to [`System`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const N: usize = 256;
/// The paper-scale degree of the `*_n13` benchmark workloads.
const N_PAPER: usize = 1 << 13;
const STEADY_ITERS: usize = 32;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// One steady-state traffic iteration: the full non-download op set
/// (`download` is the one documented allocating op — it crosses the
/// backend boundary into caller-owned memory) with every produced
/// handle freed back to the pool.
fn steady_iteration(be: &mut dyn PolyBackend, a: &[u128], b: &[u128]) {
    let ha = be.upload(a).unwrap();
    let hb = be.upload(b).unwrap();
    let fa = be.ntt(ha).unwrap();
    let fb = be.ntt(hb).unwrap();
    let had = be.hadamard(fa, fb).unwrap();
    let back = be.intt(had).unwrap();
    let fused = be.hadamard_intt(fa, fb).unwrap();
    let sum = be.pointwise_add(ha, hb).unwrap();
    let diff = be.pointwise_sub(ha, hb).unwrap();
    let scaled = be.scalar_mul(ha, 12345).unwrap();
    let prod = be.poly_mul(ha, hb).unwrap();
    for h in [ha, hb, fa, fb, had, back, fused, sum, diff, scaled, prod] {
        be.free(h);
    }
}

/// Warms a backend, then asserts the steady-state window allocates
/// nothing and the buffer pool served every request from stock.
fn assert_zero_alloc_steady_state(be: &mut dyn PolyBackend, a: &[u128], b: &[u128], label: &str) {
    steady_iteration(be, a, b);
    steady_iteration(be, a, b);

    let warm = be.pool_stats();
    let before = allocations();
    for _ in 0..STEADY_ITERS {
        steady_iteration(be, a, b);
    }
    let delta = allocations() - before;
    let stats = be.pool_stats();

    assert_eq!(delta, 0, "{label}: warmed steady state performed {delta} heap allocations");
    assert_eq!(
        stats.misses, warm.misses,
        "{label}: buffer pool missed after warm-up (allocations hid behind the pool)"
    );
    assert!(
        stats.hits > warm.hits,
        "{label}: steady-state traffic did not exercise the buffer pool"
    );
}

/// `ct · pt` as `cofhee_bfv` records it: the plaintext uploaded once, one
/// Algorithm 2 PolyMul per ciphertext component.
fn mul_plain_shaped(n: usize) -> OpStream {
    let mut st = OpStream::new(n);
    let pt = st.upload((0..n as u128).map(|i| i % 5).collect()).unwrap();
    for c in 0..2u128 {
        let ct = st.upload((0..n as u128).map(|i| i * 977 + c).collect()).unwrap();
        let prod = st.poly_mul(ct, pt).unwrap();
        st.output(prod).unwrap();
    }
    st
}

/// `ct + ct`: four uploads, one PMODADD per component.
fn ct_add_shaped(n: usize) -> OpStream {
    let mut st = OpStream::new(n);
    for c in 0..2u128 {
        let a = st.upload((0..n as u128).map(|i| i * 31 + c).collect()).unwrap();
        let b = st.upload((0..n as u128).map(|i| i * 17 + c).collect()).unwrap();
        let sum = st.pointwise_add(a, b).unwrap();
        st.output(sum).unwrap();
    }
    st
}

/// A relinearization as the evaluators record it: 7 digits against a key
/// already resident in NTT form (`keys`), folded onto two components —
/// 60 nodes, 46 of them producing a buffer.
fn key_switch_shaped(n: usize, keys: &[(PolyHandle, PolyHandle)]) -> OpStream {
    let poly = |seed: u128| (0..n as u128).map(|i| i * 131 + seed).collect::<Vec<_>>();
    let digits: Vec<_> = (0..keys.len() as u128).map(|d| std::sync::Arc::new(poly(d))).collect();
    let mut st = OpStream::new(n);
    record_key_switch(&mut st, &digits, KeySwitchKeys::Resident(keys), [poly(50), poly(51)])
        .unwrap();
    st
}

/// What a warmed CPU stream replay allocates beyond its output vectors:
/// the use counts it frees by, the node → handle table and the output
/// list. Per stream — not per node, not per coefficient.
const CPU_REPLAY_BOOKKEEPING_ALLOCS: u64 = 3;
/// Pool buffers a 7-digit resident key switch holds at once (a digit's
/// transform, both accumulators, a product, the sum replacing one).
const KEY_SWITCH_LIVE_SET: u64 = 5;

/// What one stream execution may allocate beyond its output vectors: the
/// scheduler's seven per-stream vectors (bank list, slot table,
/// residence, use counts, output marks, batch records, the output list).
/// Per stream — not per command, not per coefficient.
const STREAM_BOOKKEEPING_ALLOCS: u64 = 7;

/// Allocations of one warmed `execute_stream`, outputs included.
fn warmed_stream_allocations(chip: &mut ChipBackend, stream: &OpStream) -> u64 {
    for _ in 0..2 {
        chip.execute_stream(stream).unwrap();
    }
    let before = allocations();
    let outcome = chip.execute_stream(stream).unwrap();
    let delta = allocations() - before;
    assert_eq!(outcome.outputs.len(), stream.outputs().len());
    delta
}

#[test]
fn warmed_backends_run_allocation_free() {
    let operands = |n: usize| -> (Vec<u128>, Vec<u128>) {
        ((0..n as u128).collect(), (0..n as u128).map(|i| i * 3 + 1).collect())
    };

    for n in [N, N_PAPER] {
        let (a, b) = operands(n);

        // CpuBackend, narrow (Barrett64) engine.
        let q55 = ntt_prime(55, n).unwrap();
        let mut cpu = CpuBackend::new(q55, n).unwrap();
        assert_zero_alloc_steady_state(&mut cpu, &a, &b, &format!("cpu/narrow n={n}"));

        // CpuBackend, wide (Barrett128) engine — the chip-native width.
        let q109 = ntt_prime(109, n).unwrap();
        let mut cpu = CpuBackend::new(q109, n).unwrap();
        assert_zero_alloc_steady_state(&mut cpu, &a, &b, &format!("cpu/wide n={n}"));
    }

    // CpuBackend streams: a warmed key switch replays out of its live
    // set, at either width and at every degree.
    for n in [N, N_PAPER] {
        for bits in [55u32, 109] {
            let mut cpu = CpuBackend::new(ntt_prime(bits, n).unwrap(), n).unwrap();
            let keys: Vec<_> = (0..7u128)
                .map(|d| {
                    let mut form = |seed: u128| {
                        let raw: Vec<u128> = (0..n as u128).map(|i| i * 37 + seed).collect();
                        let up = cpu.upload(&raw).unwrap();
                        let form = cpu.ntt(up).unwrap();
                        cpu.free(up);
                        form
                    };
                    (form(2 * d), form(2 * d + 1))
                })
                .collect();
            let stream = key_switch_shaped(n, &keys);
            for _ in 0..2 {
                cpu.execute_stream(&stream).unwrap();
            }
            let warm = cpu.pool_stats();
            let before = allocations();
            let outcome = cpu.execute_stream(&stream).unwrap();
            let delta = allocations() - before;
            let stats = cpu.pool_stats();
            let label = format!("cpu key switch, {bits}-bit q, n={n}");
            assert_eq!(
                delta,
                outcome.outputs.len() as u64 + CPU_REPLAY_BOOKKEEPING_ALLOCS,
                "{label}: allocations of one warmed replay"
            );
            assert_eq!(stats.misses, warm.misses, "{label}: pool missed after warm-up");
            assert_eq!(stats.hits - warm.hits, 46, "{label}: a pool take per producing node");
            assert_eq!(stats.high_water, KEY_SWITCH_LIVE_SET, "{label}: pool high-water");
        }
    }

    // ChipBackend staging: compute ops legitimately allocate (bank
    // downloads produce fresh host mirrors), but the upload/free mirror
    // traffic the farm front-end hammers must recycle.
    let (a, _) = operands(N);
    let q109 = ntt_prime(109, N).unwrap();
    let mut chip = ChipBackend::connect(ChipConfig::silicon(), q109, N).unwrap();
    let h = chip.upload(&a).unwrap();
    chip.free(h);
    let h = chip.upload(&a).unwrap();
    chip.free(h);
    let warm = chip.pool_stats();
    let before = allocations();
    for _ in 0..STEADY_ITERS {
        let h = chip.upload(&a).unwrap();
        chip.free(h);
    }
    let delta = allocations() - before;
    let stats = chip.pool_stats();
    assert_eq!(delta, 0, "chip staging: warmed upload/free performed {delta} allocations");
    assert_eq!(stats.misses, warm.misses, "chip staging: pool missed after warm-up");
    assert!(stats.hits > warm.hits, "chip staging: traffic did not exercise the pool");

    // ChipBackend streams, on the simulator's word-width kernel (47 bits)
    // and on its 128-bit arithmetic (109 bits).
    for (shape, build) in
        [("ct * pt", mul_plain_shaped as fn(usize) -> OpStream), ("ct + ct", ct_add_shaped)]
    {
        for bits in [47u32, 109] {
            let per_degree = [1usize << 10, 1 << 12].map(|n| {
                let stream = build(n);
                let q = ntt_prime(bits, n).unwrap();
                let mut chip = ChipBackend::connect(ChipConfig::silicon(), q, n).unwrap();
                let delta = warmed_stream_allocations(&mut chip, &stream);
                let outputs = stream.outputs().len() as u64;
                assert!(
                    delta <= outputs + STREAM_BOOKKEEPING_ALLOCS,
                    "{shape}, {bits}-bit q, n={n}: {delta} allocations for {outputs} outputs"
                );
                delta
            });
            assert_eq!(
                per_degree[0], per_degree[1],
                "{shape}, {bits}-bit q: allocations grew with the degree"
            );
        }
    }
}
