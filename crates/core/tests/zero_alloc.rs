//! The allocation-counting harness behind the zero-alloc claim: a
//! counting `#[global_allocator]` proves — not asserts — that a warmed
//! [`CpuBackend`] replays a stream of every op kind allocating **only**
//! its output vectors and three bookkeeping vectors, every buffer served
//! from the pool, and that [`ChipBackend`] staging (upload/free)
//! allocates nothing at all.
//!
//! Methodology:
//!
//! * The wrapper counts every `alloc`/`alloc_zeroed`/`realloc`; the
//!   steady-state window is the delta across `STEADY_ITERS` executions
//!   after two warm-up executions (warm-up populates the twiddle cache,
//!   grows the handle map to capacity, and stocks the
//!   [`cofhee_core::PoolStats`]-tracked buffer pool — two rounds, not
//!   one, because the pool only learns the high-water buffer count
//!   after a complete first pass).
//! * [`CpuBackend`] is checked at a small degree and at `n = 2^13`,
//!   the degree the end-to-end benchmark runs, on both engine widths:
//!   its kernels never spawn threads, so the ledger — the outputs (a
//!   download crosses the backend boundary into caller-owned memory)
//!   plus the replay's use counts, node → handle table and output list —
//!   holds at every degree. Nothing per node, nothing per coefficient.
//! * The replay frees each handle after its last consumer, so a
//!   key-switch-shaped stream of 34 buffer-producing nodes runs out of
//!   the 4 pool buffers of its live set, on the same ledger.
//! * A warmed [`ChipBackend::execute_stream`] is held to a ledger too:
//!   the simulated die computes in place in its SRAM, so a stream costs
//!   its output vectors plus the scheduler's own few bookkeeping vectors
//!   — the same count at every degree and for either modulus width,
//!   nothing per coefficient and nothing per command.
//! * The counter is per thread: the backends under test never spawn, so
//!   the test thread's count is the whole ledger, and what the libtest
//!   harness allocates on its own threads while a window is open (it
//!   did, now and then, when the counter was process-global) is not in
//!   it.
//!
//! `cofhee_core` itself forbids `unsafe_code`; this harness is a
//! separate crate root and needs `unsafe` only for the `GlobalAlloc`
//! shim around [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cofhee_arith::primes::ntt_prime;
use cofhee_core::{
    record_key_switch, record_mul_plain, ChipBackend, CpuBackend, KeySwitchKeys, OpStream,
    PolyBackend, PolyHandle,
};
use cofhee_sim::ChipConfig;

/// Counts the allocation events of the calling thread; forwards
/// everything to [`System`].
struct CountingAlloc;

thread_local! {
    /// Const-initialized and without a destructor, so touching it from
    /// inside the allocator neither allocates nor outlives the thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocation events of this thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The full mix: every op kind of the `StreamOp` vocabulary once, every
/// result that nothing else reads an output. Eleven buffer-producing
/// nodes, six outputs.
fn full_mix(a: &[u128], b: &[u128]) -> OpStream {
    let mut st = OpStream::new(a.len());
    let ha = st.upload(a.to_vec()).unwrap();
    let hb = st.upload(b.to_vec()).unwrap();
    let fa = st.ntt(ha).unwrap();
    let fb = st.ntt(hb).unwrap();
    let had = st.hadamard(fa, fb).unwrap();
    let outputs = [
        st.intt(had).unwrap(),
        st.hadamard_intt(fa, fb).unwrap(),
        st.hadamard_add(fa, fb, had).unwrap(),
        st.pointwise_add(ha, hb).unwrap(),
        st.pointwise_sub(ha, hb).unwrap(),
        st.scalar_mul(ha, 12345).unwrap(),
    ];
    for h in outputs {
        st.output(h).unwrap();
    }
    st
}

/// Pool takes of one [`full_mix`] replay: one per buffer-producing node.
const FULL_MIX_POOL_TAKES: u64 = 11;
/// Pool buffers a [`full_mix`] replay holds at once, reached at its last
/// node: both uploads and the six outputs.
const FULL_MIX_LIVE_SET: u64 = 8;

/// What a warmed CPU stream replay allocates beyond its output vectors:
/// the use counts it frees by, the node → handle table and the output
/// list. Per stream — not per node, not per coefficient.
const CPU_REPLAY_BOOKKEEPING_ALLOCS: u64 = 3;

/// Warms a backend on `stream`, then holds `STEADY_ITERS` replays to the
/// ledger: allocations are the outputs plus the bookkeeping vectors, the
/// buffer pool serves every one of `takes` requests per replay from
/// stock, and never holds more than `live_set` buffers.
fn assert_cpu_replay_ledger(
    cpu: &mut CpuBackend,
    stream: &OpStream,
    takes: u64,
    live_set: u64,
    label: &str,
) {
    for _ in 0..2 {
        cpu.execute_stream(stream).unwrap();
    }
    let warm = cpu.pool_stats();
    let before = allocations();
    for _ in 0..STEADY_ITERS {
        let outcome = cpu.execute_stream(stream).unwrap();
        assert_eq!(outcome.outputs.len(), stream.outputs().len());
    }
    let delta = allocations() - before;
    let stats = cpu.pool_stats();
    let per_replay = stream.outputs().len() as u64 + CPU_REPLAY_BOOKKEEPING_ALLOCS;
    assert_eq!(
        delta,
        STEADY_ITERS as u64 * per_replay,
        "{label}: allocations of {STEADY_ITERS} warmed replays"
    );
    assert_eq!(
        stats.misses, warm.misses,
        "{label}: buffer pool missed after warm-up (allocations hid behind the pool)"
    );
    assert_eq!(
        stats.hits - warm.hits,
        STEADY_ITERS as u64 * takes,
        "{label}: pool takes per replay"
    );
    assert_eq!(stats.high_water, live_set, "{label}: pool high-water");
}

/// `raw` resident on `cpu` in NTT form: a one-transform stream whose
/// output is uploaded back, as `cofhee_opt::LimbEngine` brings a key up.
fn ntt_form(cpu: &mut CpuBackend, raw: Vec<u128>) -> PolyHandle {
    let mut st = OpStream::new(raw.len());
    let up = st.upload(raw).unwrap();
    let form = st.ntt(up).unwrap();
    st.output(form).unwrap();
    let out = cpu.execute_stream(&st).unwrap().outputs;
    cpu.upload(&out[0]).unwrap()
}

/// `ct · pt` as both schemes record it: the plaintext's stored NTT form
/// uploaded, a transform and a fused Hadamard + inverse against it per
/// ciphertext component.
fn mul_plain_shaped(n: usize) -> OpStream {
    let pt_ntt: Vec<u128> = (0..n as u128).map(|i| i % 5).collect();
    let components = (0..2u128).map(|c| (0..n as u128).map(|i| i * 977 + c).collect::<Vec<_>>());
    record_mul_plain(n, pt_ntt, components).unwrap()
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
/// 48 nodes, 34 of them producing a buffer.
fn key_switch_shaped(n: usize, keys: &[(PolyHandle, PolyHandle)]) -> OpStream {
    let poly = |seed: u128| (0..n as u128).map(|i| i * 131 + seed).collect::<Vec<_>>();
    let digits: Vec<_> = (0..keys.len() as u128).map(|d| std::sync::Arc::new(poly(d))).collect();
    let mut st = OpStream::new(n);
    record_key_switch(&mut st, &digits, KeySwitchKeys::Resident(keys), [poly(50), poly(51)])
        .unwrap();
    st
}

/// Pool buffers a 7-digit resident key switch holds at once (a digit's
/// transform, both accumulators, the multiply-accumulate replacing one).
const KEY_SWITCH_LIVE_SET: u64 = 4;

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

    // CpuBackend streams, at either width and at every degree: the full
    // mix of op kinds, then a key switch against resident keys, which
    // replays out of its live set.
    for n in [N, N_PAPER] {
        let (a, b) = operands(n);
        for bits in [55u32, 109] {
            let mut cpu = CpuBackend::new(ntt_prime(bits, n).unwrap(), n).unwrap();
            let label = format!("cpu full mix, {bits}-bit q, n={n}");
            assert_cpu_replay_ledger(
                &mut cpu,
                &full_mix(&a, &b),
                FULL_MIX_POOL_TAKES,
                FULL_MIX_LIVE_SET,
                &label,
            );

            let mut cpu = CpuBackend::new(ntt_prime(bits, n).unwrap(), n).unwrap();
            let mut form =
                |seed: u128| ntt_form(&mut cpu, (0..n as u128).map(|i| i * 37 + seed).collect());
            let keys: Vec<_> = (0..7u128).map(|d| (form(2 * d), form(2 * d + 1))).collect();
            let label = format!("cpu key switch, {bits}-bit q, n={n}");
            let stream = key_switch_shaped(n, &keys);
            assert_cpu_replay_ledger(&mut cpu, &stream, 34, KEY_SWITCH_LIVE_SET, &label);
        }
    }

    // ChipBackend staging: the upload/free mirror traffic resident keys
    // and the farm front-end put on the store must recycle.
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
