//! The limb engine: the one place a scheme evaluator's recorded streams
//! are compiled, fanned out across per-modulus backends, and accounted —
//! and the one place its key-switch keys are kept resident on those
//! backends. A key-switch key is stored in NTT form (transformed once,
//! when it is generated), so making it resident is an upload and the
//! engine never submits a stream for it. The client side of both schemes
//! (encryptors, decryptors, the CKKS key generator) runs on one as well:
//! a CPU engine each object brings up on first use
//! ([`LimbEngine::client`]) with its own raw key pair transformed onto
//! it ([`LimbEngine::resident_pair`]).

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use cofhee_core::{
    cores, fan_out, BackendFactory, CommStats, CpuBackendFactory, OpReport, OpStream, PolyBackend,
    PolyHandle, PoolStats, Result, StreamReport,
};

use crate::{optimize, OptLevel};

type SharedBackend = Arc<Mutex<Box<dyn PolyBackend>>>;

/// How one polynomial of a key becomes a handle on its backend.
type MakeResident = fn(&mut dyn PolyBackend, &[u128]) -> Result<PolyHandle>;

/// Makes `raw` resident on `be` in NTT form: a one-transform stream whose
/// output is uploaded back as the handle. Submitted to the backend
/// directly — a client pair's bring-up is not part of any engine's
/// stream totals.
fn ntt_form(be: &mut dyn PolyBackend, raw: &[u128]) -> Result<PolyHandle> {
    let mut st = OpStream::new(be.n());
    let up = st.upload(raw.to_vec())?;
    let form = st.ntt(up)?;
    st.output(form)?;
    let out = be.execute_stream(&st)?.outputs;
    be.upload(&out[0])
}

/// Poison-tolerant: a backend is valid between any two calls, so a panic
/// in another holder leaves nothing half-updated to protect.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The identity of one key-switch key, carried inside `RelinKey` and
/// `CkksRelinKey`. Clones of a key share it; a freshly generated key
/// gets a new one (`KeyId::default()`). The engine's residency set
/// watches it weakly, so a key's resident form lives exactly as long as
/// some clone of the key does and two live keys never alias.
#[derive(Debug, Clone, Default)]
pub struct KeyId(Arc<()>);

/// NTT-form `(k0, k1)` handle pairs, `[limb][digit]`.
type KeyHandles = Vec<Vec<(PolyHandle, PolyHandle)>>;

/// One key's resident form: limb `j` lives on backend `first + j`.
#[derive(Debug)]
struct ResidentKey {
    key: Weak<()>,
    first: usize,
    handles: KeyHandles,
}

/// One backend per modulus, the [`OptLevel`] applied before every submit,
/// the stream telemetry of everything submitted, and the key-switch keys
/// resident on those backends — what
/// `cofhee_bfv::Evaluator` (over `[q, p₀ … p_k]`) and
/// `cofhee_ckks::CkksEvaluator` (over the chain primes) both execute on.
/// Clones share the backends, the telemetry and the resident keys.
#[derive(Debug, Clone)]
pub struct LimbEngine {
    backend_name: &'static str,
    backends: Vec<SharedBackend>,
    stream_totals: Arc<Mutex<StreamReport>>,
    resident: Arc<Mutex<Vec<ResidentKey>>>,
    opt_level: OptLevel,
}

impl LimbEngine {
    /// Brings up one `factory` backend per entry of `moduli` at degree
    /// `n`, with the stream compiler at `O0`.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures.
    pub fn new(factory: &dyn BackendFactory, moduli: &[u128], n: usize) -> Result<Self> {
        let backends = moduli
            .iter()
            .map(|&q| Ok(Arc::new(Mutex::new(factory.make(q, n)?))))
            .collect::<Result<_>>()?;
        Ok(Self {
            backend_name: factory.name(),
            backends,
            stream_totals: Arc::default(),
            resident: Arc::default(),
            opt_level: OptLevel::O0,
        })
    }

    /// The CPU engine a client-side object owns, brought up over `moduli`
    /// the first time the object computes: constructors stay infallible
    /// and a bring-up failure surfaces, typed, from the operation that
    /// needed the engine. Word-sized moduli get the 64-bit kernels (the
    /// CPU backend's own rule), so an RNS limb is computed at its own
    /// width. A client op is one short stream per limb, run one after
    /// another on the calling thread — [`LimbEngine::run_one`] never
    /// spawns.
    ///
    /// # Errors
    ///
    /// Propagates backend bring-up failures; `cell` stays empty.
    pub fn client<'a>(cell: &'a OnceLock<Self>, moduli: &[u128], n: usize) -> Result<&'a Self> {
        if let Some(engine) = cell.get() {
            return Ok(engine);
        }
        let engine = Self::new(&CpuBackendFactory, moduli, n)?;
        // Two first uses may race: the loser's engine is dropped unused.
        Ok(cell.get_or_init(|| engine))
    }

    /// Makes a client key that is one raw `(k0, k1)` pair per limb — an
    /// encryptor's `(p0, p1)`, a decryptor's `(s, s²)` — resident in NTT
    /// form: `pairs[j]` is transformed on backend `j`, once, and the
    /// handle pair of each limb comes back. Lifetime and sharing are
    /// [`LimbEngine::resident_keys`]'s.
    ///
    /// # Errors
    ///
    /// Propagates upload and transform failures; nothing stays resident
    /// for `key`.
    pub fn resident_pair<'k>(
        &self,
        key: &KeyId,
        pairs: impl IntoIterator<Item = (&'k [u128], &'k [u128])>,
    ) -> Result<Vec<(PolyHandle, PolyHandle)>> {
        let limbs: Vec<_> = pairs.into_iter().map(|pair| vec![pair]).collect();
        let handles = self.resident(key, 0, &limbs, ntt_form)?;
        Ok(handles.into_iter().map(|digits| digits[0]).collect())
    }

    /// The same engine with the stream compiler set to `level`.
    #[must_use]
    pub fn with_opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// The stream-compiler level applied before submits.
    #[must_use]
    pub fn opt_level(&self) -> OptLevel {
        self.opt_level
    }

    /// The backend family label ("cpu", "cofhee-chip", ...).
    #[must_use]
    pub fn backend_name(&self) -> &'static str {
        self.backend_name
    }

    /// Rewrites each stream at the engine's [`OptLevel`] (as recorded at
    /// `O0`), executes stream `j` on backend `first + j` — through
    /// [`fan_out`], one task per stream, each stream given
    /// `lanes = max(1, cores / streams)` host threads of its own
    /// ([`PolyBackend::execute_stream_lanes`]): a stream submitted alone
    /// — a BFV key switch — has its ready transform / multiply nodes
    /// replayed `cores` at a time. Returns each stream's downloaded
    /// outputs. The group lands in [`LimbEngine::stream_report`] as one
    /// concurrent submit: serial totals sum (that baseline really is one
    /// limb after another), overlapped is the slowest limb, and the nodes
    /// the compiler eliminated are counted in.
    ///
    /// # Errors
    ///
    /// Propagates rewrite and execution failures.
    ///
    /// # Panics
    ///
    /// Panics when `first + streams.len()` exceeds the backend count.
    pub fn run(&self, first: usize, streams: Vec<OpStream>) -> Result<Vec<Vec<Vec<u128>>>> {
        let lanes = (cores() / streams.len().max(1)).max(1);
        self.submit(first, streams, lanes)
    }

    /// [`LimbEngine::run`] for one stream on backend `j`, on the calling
    /// thread and no other — one lane, nothing spawned: the stream's
    /// downloaded outputs. What the client ops and the linear evaluator
    /// ops submit through: their streams are a fraction of a millisecond,
    /// which a scoped spawn per wave would cost back.
    ///
    /// # Errors
    ///
    /// As [`LimbEngine::run`].
    pub fn run_one(&self, j: usize, stream: OpStream) -> Result<Vec<Vec<u128>>> {
        Ok(self.submit(j, vec![stream], 1)?.pop().expect("one stream, one outcome"))
    }

    /// One submit: stream `j` on backend `first + j` with `lanes` lanes.
    fn submit(
        &self,
        first: usize,
        mut streams: Vec<OpStream>,
        lanes: usize,
    ) -> Result<Vec<Vec<Vec<u128>>>> {
        let mut eliminated = 0u64;
        if self.opt_level != OptLevel::O0 {
            for st in &mut streams {
                let (opt, stats) = optimize(st, self.opt_level)?;
                eliminated += stats.ops_eliminated;
                *st = opt;
            }
        }
        let mut guards: Vec<_> =
            self.backends[first..first + streams.len()].iter().map(|be| lock(be)).collect();
        let mut tasks: Vec<_> = guards
            .iter_mut()
            .zip(&streams)
            .map(|(g, stream)| ((**g).as_mut(), stream, None))
            .collect();
        fan_out(&mut tasks, |(backend, stream, outcome)| {
            *outcome = Some(backend.execute_stream_lanes(stream, lanes));
        });
        let outcomes = tasks
            .into_iter()
            .map(|(_, _, outcome)| outcome.expect("fan_out ran every task"))
            .collect::<Result<Vec<_>>>()?;
        drop(guards);

        let mut limbs = Vec::with_capacity(outcomes.len());
        let mut group = StreamReport::default();
        let (mut wall_cycles, mut wall_seconds) = (0u64, 0.0f64);
        for outcome in outcomes {
            wall_cycles = wall_cycles.max(outcome.report.overlapped_cycles);
            wall_seconds = wall_seconds.max(outcome.report.overlapped_seconds);
            group.absorb(&outcome.report);
            limbs.push(outcome.outputs);
        }
        group.overlapped_cycles = wall_cycles;
        group.overlapped_seconds = wall_seconds;
        group.ops_eliminated += eliminated;
        lock(&self.stream_totals).absorb(&group);
        Ok(limbs)
    }

    /// The handles of a key-switch key on this engine's backends, for
    /// [`KeySwitchKeys::Resident`](cofhee_core::KeySwitchKeys):
    /// `handles[j][i]` is digit `i`'s `(k0, k1)` pair on backend
    /// `first + j`.
    ///
    /// The first call for a `key` uploads each polynomial of
    /// `limbs[j][i]` — the key's stored NTT form, residues mod backend
    /// `first + j`'s modulus — and nothing else: no stream is submitted
    /// for a key-switch key, by this call or any later one. Every later
    /// call, from this engine or a clone, returns the same handles and
    /// ignores `limbs`. The buffers held are `2 · digits` per limb until
    /// the last clone of the key is dropped: each call first frees the
    /// handles of dropped keys back to their backends' pools.
    /// [`LimbEngine::reset`] clears telemetry only.
    ///
    /// # Errors
    ///
    /// Propagates upload failures; the handles made so far are freed and
    /// nothing stays resident for `key`.
    ///
    /// # Panics
    ///
    /// Panics when `first + limbs.len()` exceeds the backend count.
    pub fn resident_keys(
        &self,
        key: &KeyId,
        first: usize,
        limbs: &[Vec<(&[u128], &[u128])>],
    ) -> Result<KeyHandles> {
        self.resident(key, first, limbs, |be, form| be.upload(form))
    }

    /// The residency set behind [`LimbEngine::resident_keys`] (`make` =
    /// upload) and [`LimbEngine::resident_pair`] (`make` = transform).
    fn resident(
        &self,
        key: &KeyId,
        first: usize,
        limbs: &[Vec<(&[u128], &[u128])>],
        make: MakeResident,
    ) -> Result<KeyHandles> {
        let mut set = lock(&self.resident);
        set.retain(|entry| {
            let live = entry.key.strong_count() > 0;
            if !live {
                self.release(entry);
            }
            live
        });
        if let Some(entry) = set.iter().find(|e| e.key.as_ptr() == Arc::as_ptr(&key.0)) {
            return Ok(entry.handles.clone());
        }
        let mut entry = ResidentKey { key: Arc::downgrade(&key.0), first, handles: Vec::new() };
        for (be, pairs) in self.backends[first..first + limbs.len()].iter().zip(limbs) {
            let mut be = lock(be);
            let mut forms = Vec::with_capacity(pairs.len());
            let done: Result<()> = pairs.iter().try_for_each(|&(k0, k1)| {
                let f0 = make(be.as_mut(), k0)?;
                let f1 = make(be.as_mut(), k1).map_err(|e| {
                    be.free(f0);
                    e
                })?;
                forms.push((f0, f1));
                Ok(())
            });
            drop(be);
            entry.handles.push(forms);
            if let Err(e) = done {
                // Failed part-way: release the partial set.
                self.release(&entry);
                return Err(e);
            }
        }
        let handles = entry.handles.clone();
        set.push(entry);
        Ok(handles)
    }

    /// Frees every handle of `entry` on the backend that issued it.
    fn release(&self, entry: &ResidentKey) {
        for (be, pairs) in self.backends[entry.first..].iter().zip(&entry.handles) {
            let mut be = lock(be);
            for &(f0, f1) in pairs {
                be.free(f0);
                be.free(f1);
            }
        }
    }

    /// Folds `add` over every backend, in modulus order.
    fn sum<T: Default>(&self, add: impl Fn(&mut T, &mut dyn PolyBackend)) -> T {
        let mut total = T::default();
        for be in &self.backends {
            add(&mut total, lock(be).as_mut());
        }
        total
    }

    /// Cumulative execution telemetry summed over every backend.
    #[must_use]
    pub fn report(&self) -> OpReport {
        self.sum(|total: &mut OpReport, be| total.absorb(&be.report()))
    }

    /// Cumulative scratch-pool telemetry summed over every backend.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        self.sum(|total: &mut PoolStats, be| total.absorb(&be.pool_stats()))
    }

    /// Cumulative host-communication accounting summed over every
    /// backend (zero on the CPU path).
    #[must_use]
    pub fn comm_stats(&self) -> CommStats {
        self.sum(|total: &mut CommStats, be| total.merge(&be.comm_stats()))
    }

    /// Accumulated stream telemetry of every [`LimbEngine::run`] this
    /// engine and its clones issued.
    #[must_use]
    pub fn stream_report(&self) -> StreamReport {
        *lock(&self.stream_totals)
    }

    /// Clears the telemetry of every backend and the stream totals;
    /// resident keys stay resident.
    pub fn reset(&self) {
        for be in &self.backends {
            lock(be).reset_telemetry();
        }
        *lock(&self.stream_totals) = StreamReport::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{poly, q, N};
    use cofhee_core::{ChipBackendFactory, CpuBackendFactory};

    /// `intt(ntt(a))` and `a + b`: the round trip is what O1 removes.
    fn stream(seed: u128) -> OpStream {
        let mut st = OpStream::new(N);
        let a = st.upload(poly(seed)).unwrap();
        let b = st.upload(poly(seed + 1)).unwrap();
        let f = st.ntt(a).unwrap();
        let back = st.intt(f).unwrap();
        let sum = st.pointwise_add(back, b).unwrap();
        st.output(back).unwrap();
        st.output(sum).unwrap();
        st
    }

    #[test]
    fn group_report_sums_serial_and_takes_the_slowest_limb() {
        let engine = LimbEngine::new(&ChipBackendFactory::silicon(), &[q(), q(), q()], N).unwrap();
        assert_eq!(engine.backend_name(), "cofhee-chip");
        // One stream at a time gives the per-limb (serial, overlapped).
        let mut alone = Vec::new();
        for seed in [1, 2] {
            engine.reset();
            assert_eq!(engine.run(0, vec![stream(seed)]).unwrap()[0][0], poly(seed));
            let r = engine.stream_report();
            alone.push((r.serial_cycles, r.overlapped_cycles));
        }
        engine.reset();
        assert_eq!(engine.report(), OpReport::default());
        // Both at once, on backends 1 and 2; backend 0 stays idle.
        let outs = engine.run(1, vec![stream(1), stream(2)]).unwrap();
        assert_eq!((&outs[0][0], &outs[1][0]), (&poly(1), &poly(2)));
        let group = engine.stream_report();
        assert_eq!(group.serial_cycles, alone[0].0 + alone[1].0);
        assert_eq!(group.overlapped_cycles, alone[0].1.max(alone[1].1));
        assert_eq!(lock(&engine.backends[0]).report().cycles, 0);
        assert!(engine.report().cycles > 0 && engine.comm_stats().bytes > 0);
    }

    const LIMBS: usize = 2;
    const DIGITS: usize = 3;

    /// `LIMBS × DIGITS` stored `(k0, k1)` pairs, distinct per `salt` —
    /// whatever the vectors hold is the key's NTT form.
    fn stored_key(salt: u128) -> Vec<Vec<(Vec<u128>, Vec<u128>)>> {
        (0..LIMBS as u128)
            .map(|j| {
                (0..DIGITS as u128)
                    .map(|i| (poly(salt + 10 * j + i), poly(salt + 10 * j + i + 5)))
                    .collect()
            })
            .collect()
    }

    fn make_resident(
        engine: &LimbEngine,
        key: &KeyId,
        stored: &[Vec<(Vec<u128>, Vec<u128>)>],
    ) -> Result<KeyHandles> {
        let limbs: Vec<Vec<_>> =
            stored.iter().map(|l| l.iter().map(|(k0, k1)| (&k0[..], &k1[..])).collect()).collect();
        engine.resident_keys(key, 1, &limbs)
    }

    /// Downloads limb 0's resident polynomial `h` through a stream on
    /// the backend it lives on (limb `j` is on backend `1 + j`).
    fn read_back(engine: &LimbEngine, h: PolyHandle) -> Result<Vec<u128>> {
        let mut st = OpStream::new(N);
        let input = st.input(h);
        st.output(input)?;
        Ok(engine.run(1, vec![st])?.remove(0).remove(0))
    }

    fn transforms(engine: &LimbEngine) -> u64 {
        engine.report().butterflies / ((N as u64 / 2) * u64::from(N.trailing_zeros()))
    }

    #[test]
    fn a_key_is_uploaded_as_stored_and_shared_with_clones_across_resets() {
        for factory in [&CpuBackendFactory as &dyn BackendFactory, &ChipBackendFactory::silicon()] {
            let engine = LimbEngine::new(factory, &[q(), q(), q()], N).unwrap();
            let (key, stored) = (KeyId::default(), stored_key(100));
            let handles = make_resident(&engine, &key, &stored).unwrap();
            assert_eq!((handles.len(), handles[0].len()), (LIMBS, DIGITS));
            assert_eq!(engine.report(), OpReport::default(), "an upload computes nothing");
            // Exactly the polynomial that was handed in, untransformed.
            assert_eq!(read_back(&engine, handles[0][2].1).unwrap(), stored[0][2].1);
            engine.reset();
            // Clones of the engine and of the key find the same handles;
            // the stored form is not looked at again.
            let again = engine.clone().resident_keys(&key.clone(), 1, &[]).unwrap();
            assert_eq!(again, handles);
            // A second live key gets handles of its own.
            let other = KeyId::default();
            let theirs = make_resident(&engine, &other, &stored_key(200)).unwrap();
            assert!(theirs.iter().flatten().all(|p| !handles.iter().flatten().any(|h| h == p)));
            assert_eq!(read_back(&engine, handles[0][2].1).unwrap(), stored[0][2].1);
            assert_eq!(transforms(&engine), 0, "no key is ever transformed here");
        }
    }

    /// `(streams submitted, polynomials uploaded to the store, lanes the
    /// last stream was given)`.
    type Counts = Arc<Mutex<(u64, u64, usize)>>;

    /// A `CpuBackend` that counts the streams submitted to it and the
    /// polynomials uploaded to its store. The trait has one method that
    /// computes, so the wrapper sees all the work a backend is given.
    #[derive(Debug)]
    struct Counting(cofhee_core::CpuBackend, Counts);

    impl PolyBackend for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn n(&self) -> usize {
            self.0.n()
        }
        fn modulus(&self) -> u128 {
            self.0.modulus()
        }
        fn upload(&mut self, coeffs: &[u128]) -> Result<PolyHandle> {
            lock(&self.1).1 += 1;
            self.0.upload(coeffs)
        }
        fn download(&mut self, h: PolyHandle) -> Result<Vec<u128>> {
            self.0.download(h)
        }
        fn free(&mut self, h: PolyHandle) {
            self.0.free(h);
        }
        fn execute_stream(&mut self, stream: &OpStream) -> Result<cofhee_core::StreamOutcome> {
            self.execute_stream_lanes(stream, 1)
        }
        fn execute_stream_lanes(
            &mut self,
            stream: &OpStream,
            lanes: usize,
        ) -> Result<cofhee_core::StreamOutcome> {
            let mut counts = lock(&self.1);
            counts.0 += 1;
            counts.2 = lanes;
            self.0.execute_stream_lanes(stream, lanes)
        }
        fn report(&self) -> OpReport {
            self.0.report()
        }
        fn comm_stats(&self) -> CommStats {
            self.0.comm_stats()
        }
        fn reset_telemetry(&mut self) {
            self.0.reset_telemetry();
        }
    }

    /// Makes [`Counting`] backends; `streams()` and `uploads()` read
    /// their counters in the order they were made.
    #[derive(Debug, Default)]
    struct CountingFactory(Mutex<Vec<Counts>>);

    impl CountingFactory {
        fn streams(&self) -> Vec<u64> {
            lock(&self.0).iter().map(|count| lock(count).0).collect()
        }
        fn uploads(&self) -> Vec<u64> {
            lock(&self.0).iter().map(|count| lock(count).1).collect()
        }
        fn lanes(&self) -> Vec<usize> {
            lock(&self.0).iter().map(|count| lock(count).2).collect()
        }
    }

    impl BackendFactory for CountingFactory {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn make(&self, q: u128, n: usize) -> Result<Box<dyn PolyBackend>> {
            let count = Counts::default();
            lock(&self.0).push(count.clone());
            Ok(Box::new(Counting(cofhee_core::CpuBackend::new(q, n)?, count)))
        }
    }

    #[test]
    fn a_run_is_one_stream_per_limb_and_a_key_is_uploads_only_once() {
        let factory = CountingFactory::default();
        let engine = LimbEngine::new(&factory, &[q(), q(), q()], N).unwrap();
        assert_eq!(factory.streams(), [0, 0, 0], "bring-up computes nothing");
        engine.run(0, vec![stream(1), stream(2), stream(3)]).unwrap();
        assert_eq!(factory.streams(), [1, 1, 1]);
        // The cores are shared out among the streams of a submit…
        assert_eq!(factory.lanes(), [(cores() / 3).max(1); 3]);
        // …a stream submitted alone has them all, and `run_one` is one
        // lane whatever the host.
        engine.run(1, vec![stream(5)]).unwrap();
        engine.run_one(2, stream(4)).unwrap();
        assert_eq!(factory.lanes()[1..], [cores(), 1]);
        assert_eq!(factory.streams(), [1, 2, 2]);
        // A key's first use: one upload per polynomial, on the backend of
        // its limb (limb `j` on backend `1 + j`), and no stream…
        let (key, stored) = (KeyId::default(), stored_key(100));
        let handles = make_resident(&engine, &key, &stored).unwrap();
        let per_limb = 2 * DIGITS as u64;
        assert_eq!(factory.uploads(), [0, per_limb, per_limb]);
        assert_eq!(factory.streams(), [1, 2, 2]);
        assert_eq!(engine.stream_report().commands, 5 * stream(1).len() as u64 + 5 * 2);
        // …and every later call, from a clone or for a key clone, neither.
        assert_eq!(engine.clone().resident_keys(&key.clone(), 1, &[]).unwrap(), handles);
        assert_eq!(make_resident(&engine, &key, &stored).unwrap(), handles);
        assert_eq!(factory.uploads(), [0, per_limb, per_limb]);
        assert_eq!(factory.streams(), [1, 2, 2]);
    }

    #[test]
    fn a_dropped_keys_handles_are_freed_when_the_set_is_next_consulted() {
        for factory in [&CpuBackendFactory as &dyn BackendFactory, &ChipBackendFactory::silicon()] {
            let engine = LimbEngine::new(factory, &[q(), q(), q()], N).unwrap();
            let mut key = KeyId::default();
            let mut handles = make_resident(&engine, &key, &stored_key(0)).unwrap();
            for round in 1..=8 {
                let stale = handles[0][0].0;
                assert!(read_back(&engine, stale).is_ok(), "live while its key lives");
                key = KeyId::default(); // the previous key dies here
                handles = make_resident(&engine, &key, &stored_key(round)).unwrap();
                assert!(
                    matches!(
                        read_back(&engine, stale),
                        Err(cofhee_core::CoreError::BadHandle { .. })
                    ),
                    "{}: round {round} left the dropped key's handles live",
                    engine.backend_name()
                );
            }
            if engine.backend_name() == "cpu" {
                // Every CPU buffer is a pool take and every free a put.
                let pool = engine.pool_stats();
                assert_eq!(pool.hits + pool.misses - pool.recycled, (2 * DIGITS * LIMBS) as u64);
            }
        }
    }

    #[test]
    fn a_failed_transform_leaves_nothing_resident() {
        // The residency set is one routine under both entry points; the
        // client pair's is the one whose bring-up computes.
        let engine = LimbEngine::new(&CpuBackendFactory, &[q(), q(), q()], N).unwrap();
        let key = KeyId::default();
        let raw = [(poly(1), poly(2)), (poly(3), poly(4)), (poly(5), poly(6))];
        let mut broken = raw.clone();
        broken[2].0.pop(); // the 5th of 6 polynomials is short
        fn limbs(pairs: &[(Vec<u128>, Vec<u128>)]) -> Vec<(&[u128], &[u128])> {
            pairs.iter().map(|(k0, k1)| (&k0[..], &k1[..])).collect()
        }
        assert!(engine.resident_pair(&key, limbs(&broken)).is_err());
        let pool = engine.pool_stats();
        assert_eq!(pool.hits + pool.misses, pool.recycled, "the partial set was freed");
        // The key is not half-resident: the next call starts over.
        engine.reset();
        let handles = engine.resident_pair(&key, limbs(&raw)).unwrap();
        assert_eq!(engine.resident_pair(&key.clone(), limbs(&raw)).unwrap(), handles);
        assert_eq!(transforms(&engine), 6, "one transform per polynomial, once per key");
        let pool = engine.pool_stats();
        assert_eq!(pool.hits + pool.misses - pool.recycled, 6, "one buffer per polynomial");
        // NTT form of exactly the polynomial that was handed in.
        let mut st = OpStream::new(N);
        let input = st.input(handles[1].0);
        let coeffs = st.intt(input).unwrap();
        st.output(coeffs).unwrap();
        assert_eq!(engine.run_one(1, st).unwrap()[0], raw[1].0);
    }

    #[test]
    fn every_level_is_bit_exact_and_o1_stamps_its_rewrites() {
        let base = LimbEngine::new(&CpuBackendFactory, &[q()], N).unwrap();
        assert_eq!(base.opt_level(), OptLevel::O0);
        let recorded = base.run(0, vec![stream(7)]).unwrap();
        assert_eq!(base.stream_report().ops_eliminated, 0, "O0 executes as recorded");
        let engine = base.clone().with_opt_level(OptLevel::O1);
        assert_eq!(engine.run(0, vec![stream(7)]).unwrap(), recorded);
        // Clones share one report: the base engine sees the rewrite.
        assert!(base.stream_report().ops_eliminated > 0, "O1 drops the round trip");
        assert!(base.pool_stats().hits > 0, "two runs on one backend recycle buffers");
    }
}
