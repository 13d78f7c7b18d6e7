//! Host-speed calibration. This host is shared, and for minutes at a time
//! its memory system is contended: the same instructions take 10–40 %
//! longer, which would swamp any 10 % bound on a wall-clock rate. So next
//! to every timed segment the benchmark times a fixed **reference sweep**
//! of its own — independent integer multiplies streaming over a 4 MiB
//! buffer, no library code — and reports host rates at the speed the sweep
//! ran at: `rate × sweep_time ÷ NOMINAL_S`. A slow spell stretches
//! workload and sweep alike and cancels; a change to the library moves
//! only the workload. (Measured on `multiply_relin` at n = 2^13 over two
//! quarter-hours: the spread between 10-second windows fell from 4.9 % and
//! 7.4 % of the median to 1.6 % and 2.0 %; a cache-resident sweep tracked
//! the slow spells far worse and is not used.) The unscaled values are
//! kept beside the scaled ones in every result file.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::median;

/// The sweep's time on the host, and in the calm state, the baselines
/// under `results/` were taken on. A fixed constant: it only sets the
/// scale of the normalized rates, never their ratios.
pub const NOMINAL_S: f64 = 0.0020;

const WORDS: usize = 512 * 1024;
/// Passes over the buffer per sweep; pass 0 is not timed. It pulls the
/// buffer back into the caches the workload has just emptied, so every
/// sweep starts from the same state whatever ran before it.
const ROUNDS: u64 = 7;

struct State {
    buffer: Vec<u64>,
    /// Sweep times since the last [`take_slowdown`].
    samples: Vec<f64>,
}

static STATE: Mutex<State> = Mutex::new(State { buffer: Vec::new(), samples: Vec::new() });

/// Times one reference sweep (≈ 2 ms) and keeps the sample. Called between
/// timed ops and segments, never inside one.
pub fn sample() {
    let mut state = STATE.lock().expect("the sweep never panics while holding the lock");
    if state.buffer.is_empty() {
        state.buffer.resize(WORDS, 3);
    }
    let mut started = Instant::now();
    for r in 0..ROUNDS {
        if r == 1 {
            started = Instant::now();
        }
        for x in &mut state.buffer {
            let p = u128::from(*x) * u128::from(0x9E37_79B9_7F4A_7C15u64 + r);
            *x = ((p >> 64) as u64).wrapping_add(p as u64).rotate_left(11);
        }
    }
    black_box(&state.buffer);
    let elapsed = started.elapsed().as_secs_f64();
    state.samples.push(elapsed);
}

/// How much slower than nominal the host ran over the samples taken since
/// the last call (their median ÷ [`NOMINAL_S`]), and forgets them. A rate
/// measured over that stretch is multiplied by it, a duration divided.
/// One sweep is noisier than the workloads it sits between; the median of
/// the dozens a phase collects is not.
pub fn take_slowdown() -> f64 {
    let mut state = STATE.lock().expect("the sweep never panics while holding the lock");
    let slowdown = median(&state.samples) / NOMINAL_S;
    state.samples.clear();
    slowdown
}
