//! Allocation count of the host CRT finisher, by the same counting
//! `#[global_allocator]` harness as `crates/core/tests/zero_alloc.rs`:
//! `RnsBasis::compose` allocates nothing, and
//! [`Evaluator::tensor_combine`] allocates its three output vectors, the
//! shared pointer each is wrapped in as a `Limb`, their container, the
//! chunk list and one scratch per chunk — a count
//! that depends on how many chunks the host's cores make it, not on the
//! degree.
//!
//! Everything runs inside ONE `#[test]` so no concurrent libtest thread
//! pollutes the process-global counter (process-global on purpose: a
//! chunk's scratch is allocated on the thread that runs the chunk).
//! `cofhee_bfv` forbids `unsafe_code`; this harness is a separate crate
//! root and needs `unsafe` only for the `GlobalAlloc` shim around
//! [`System`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use cofhee_bfv::{BfvParams, Evaluator};

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

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

/// Allocations of one `tensor_combine` call at degree `n`, and of `n`
/// `compose` calls on the same basis.
fn count_at(n: usize) -> (u64, u64) {
    let params = BfvParams::insecure_testing(n).unwrap();
    let eval = Evaluator::new(&params).unwrap();
    let basis = params.mult_basis();
    // Reduced, otherwise arbitrary residues: coefficient j of every
    // component is j² + 1 in limb 0 and pᵢ − 1 − j elsewhere.
    let limbs: Vec<Vec<Vec<u128>>> = basis
        .moduli()
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let poly: Vec<u128> =
                (0..n as u128).map(|j| if i == 0 { j * j + 1 } else { p - 1 - j }).collect();
            vec![poly; 3]
        })
        .collect();
    let mut residues = vec![0u128; basis.len()];

    let before = allocations();
    let ct = eval.tensor_combine(&limbs).unwrap();
    let combine = allocations() - before;
    assert_eq!(ct.len(), 3);

    let before = allocations();
    for j in 0..n {
        for (r, limb) in residues.iter_mut().zip(&limbs) {
            *r = limb[0][j];
        }
        std::hint::black_box(basis.compose(&residues).unwrap());
    }
    (combine, allocations() - before)
}

#[test]
fn tensor_combine_allocates_independently_of_the_degree() {
    // The core count is read once per process, from files: not part of
    // any call's ledger.
    let cores = cofhee_core::cores();
    // One chunk (n = 2^10 is the smallest chunk there is): nothing is
    // spawned, whatever the host.
    let (combine_10, compose_10) = count_at(1 << 10);
    assert_eq!(compose_10, 0, "RnsBasis::compose must not touch the heap");
    assert!(
        combine_10 <= 11,
        "three outputs and their pointers, their container, the chunk list and one scratch: \
         {combine_10}"
    );
    // Two degrees this host cuts into the same number of chunks — one per
    // core: the same count, spawned threads and all.
    let n = (cores << 10).next_power_of_two().max(1 << 11);
    let (combine_n, compose_n) = count_at(n);
    let (combine_2n, _) = count_at(2 * n);
    assert_eq!(compose_n, 0, "RnsBasis::compose must not touch the heap");
    assert_eq!(
        combine_n, combine_2n,
        "tensor_combine allocations must not grow with n ({cores} cores, n = {n})"
    );
}
