//! Client-side material every workload starts from: parameters at the
//! paper's 109-bit modulus, keys, and a pool of batch-encoded ciphertexts
//! with their known plaintexts, all drawn from the run's seed.

use cofhee_arith::primes;
use cofhee_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, KeyGenerator, Plaintext, RelinKey,
};
use cofhee_ckks::{
    CkksCiphertext, CkksDecryptor, CkksEncoder, CkksEncryptor, CkksKeyGenerator, CkksParams,
    CkksPlaintext, CkksRelinKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::BenchResult;
use crate::stats::Fnv;

/// Ciphertext operands per scheme; the PRNG picks pairs out of these.
pub const POOL: usize = 8;
/// Plaintext operands for `ct*pt` jobs.
pub const PLAIN_POOL: usize = 4;
/// BFV relinearization digit width (bits).
const BFV_RELIN_BASE_BITS: u32 = 16;
/// CKKS results must match f64 arithmetic to this many bits, or the
/// result counts as failed. Measured precision is ≈ 20 bits after one
/// multiply at Δ = 2^33; 10 leaves room for seeds, not for bugs.
pub const CKKS_MIN_BITS: f64 = 10.0;

/// What a job or request computes, over pool indices: `a ∘ b` where `b`
/// indexes the plaintext pool for [`Arith::MulPlain`] and the ciphertext
/// pool otherwise. Enough to evaluate the op on the known plaintexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arith {
    Add,
    MulPlain,
    Mul,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    pub op: Arith,
    pub a: usize,
    pub b: usize,
}

pub struct BfvKit {
    pub params: BfvParams,
    pub encoder: BatchEncoder,
    pub enc: Encryptor,
    pub dec: Decryptor,
    pub rlk: RelinKey,
    /// Slot vectors behind `cts`, same order.
    pub slots: Vec<Vec<u64>>,
    pub cts: Vec<Ciphertext>,
    pub pt_slots: Vec<Vec<u64>>,
    pub pts: Vec<Plaintext>,
}

/// The paper's `log q = 109` BFV point at degree `n`: `paper_n12` /
/// `paper_n13_single_tower` for the two paper degrees, the same recipe
/// (`ntt_prime(109, n)`, `t = ntt_prime(20, n)`) for any other.
pub fn bfv_params(n: usize) -> BenchResult<BfvParams> {
    Ok(match n {
        4096 => BfvParams::paper_n12()?,
        8192 => BfvParams::paper_n13_single_tower()?,
        _ => BfvParams::new(n, primes::ntt_prime(20, n)? as u64, primes::ntt_prime(109, n)?)?,
    })
}

impl BfvKit {
    pub fn new(n: usize, seed: u64) -> BenchResult<Self> {
        let params = bfv_params(n)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb1f5);
        let kg = KeyGenerator::new(&params, &mut rng);
        let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
        let dec = Decryptor::new(&params, kg.secret_key().clone());
        let rlk = kg.relin_key(BFV_RELIN_BASE_BITS, &mut rng)?;
        let encoder = BatchEncoder::new(&params)?;
        let t = params.t();
        let draw = |rng: &mut StdRng| (0..n).map(|_| rng.gen_range(0..t)).collect::<Vec<u64>>();
        let slots: Vec<Vec<u64>> = (0..POOL).map(|_| draw(&mut rng)).collect();
        let pt_slots: Vec<Vec<u64>> = (0..PLAIN_POOL).map(|_| draw(&mut rng)).collect();
        let cts = slots
            .iter()
            .map(|s| Ok(enc.encrypt(&encoder.encode(s)?, &mut rng)?))
            .collect::<BenchResult<Vec<_>>>()?;
        let pts = pt_slots.iter().map(|s| Ok(encoder.encode(s)?)).collect::<BenchResult<_>>()?;
        Ok(Self { params, encoder, enc, dec, rlk, slots, cts, pt_slots, pts })
    }

    /// Decrypts `ct` and compares every slot with `expect`; returns the
    /// remaining noise budget in bits, or `None` when the result is wrong.
    pub fn check(&self, ct: &Ciphertext, expect: &[u64]) -> BenchResult<Option<f64>> {
        let got = self.encoder.decode(&self.dec.decrypt(ct)?);
        if got != expect {
            return Ok(None);
        }
        Ok(Some(self.dec.noise_budget(ct)?))
    }

    pub fn slotwise(&self, a: &[u64], b: &[u64], f: impl Fn(u128, u128) -> u128) -> Vec<u64> {
        let t = u128::from(self.params.t());
        a.iter().zip(b).map(|(&x, &y)| (f(u128::from(x), u128::from(y)) % t) as u64).collect()
    }

    /// Which pool entry `ct` is a copy of, by its leading coefficients.
    pub fn ct_index(&self, ct: &Ciphertext) -> Option<usize> {
        let key = |c: &Ciphertext| c.polys().first().map(|p| p.coeffs()[..2].to_vec());
        self.cts.iter().position(|c| key(c) == key(ct))
    }

    pub fn pt_index(&self, pt: &Plaintext) -> Option<usize> {
        self.pts.iter().position(|p| p.coeffs() == pt.coeffs())
    }

    /// [`BfvKit::check`] against the plaintext evaluation of `plan`.
    pub fn check_plan(&self, ct: &Ciphertext, plan: Plan) -> BenchResult<Option<f64>> {
        let a = &self.slots[plan.a];
        let expect = match plan.op {
            Arith::Add => self.slotwise(a, &self.slots[plan.b], |x, y| x + y),
            Arith::MulPlain => self.slotwise(a, &self.pt_slots[plan.b], |x, y| x * y),
            Arith::Mul => self.slotwise(a, &self.slots[plan.b], |x, y| x * y),
        };
        self.check(ct, &expect)
    }
}

/// FNV-1a over the ciphertext's coefficient bytes.
pub fn digest_bfv(ct: &Ciphertext) -> u64 {
    let mut h = Fnv::default();
    for p in ct.polys() {
        h.words(p.coeffs());
    }
    h.0
}

pub struct CkksKit {
    pub params: CkksParams,
    pub encoder: CkksEncoder,
    pub enc: CkksEncryptor,
    pub dec: CkksDecryptor,
    pub rlk: CkksRelinKey,
    pub slots: Vec<Vec<f64>>,
    pub cts: Vec<CkksCiphertext>,
    pub pt_slots: Vec<Vec<f64>>,
    pub pts: Vec<CkksPlaintext>,
}

/// The 109-bit CKKS chain: a 43-bit base prime and two 33-bit scale
/// primes, Δ = 2^33, 18-bit relinearization digits.
pub fn ckks_params(n: usize) -> BenchResult<CkksParams> {
    let mut moduli = vec![primes::ntt_prime(43, n)?];
    moduli.extend(primes::ntt_primes(33, n, 2)?);
    Ok(CkksParams::new(n, moduli, (1u64 << 33) as f64, 18)?)
}

impl CkksKit {
    pub fn new(n: usize, seed: u64) -> BenchResult<Self> {
        let params = ckks_params(n)?;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcc55);
        let kg = CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng)?;
        let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng)?);
        let rlk = kg.relin_key(&sk, &mut rng)?;
        let dec = CkksDecryptor::new(&params, sk);
        let encoder = CkksEncoder::new(&params);
        let count = params.slots();
        let draw = |rng: &mut StdRng| {
            (0..count).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect::<Vec<f64>>()
        };
        let slots: Vec<Vec<f64>> = (0..POOL).map(|_| draw(&mut rng)).collect();
        let pt_slots: Vec<Vec<f64>> = (0..PLAIN_POOL).map(|_| draw(&mut rng)).collect();
        let cts = slots
            .iter()
            .map(|s| Ok(enc.encrypt(&encoder.encode(s)?, &mut rng)?))
            .collect::<BenchResult<Vec<_>>>()?;
        let pts = pt_slots.iter().map(|s| Ok(encoder.encode(s)?)).collect::<BenchResult<_>>()?;
        Ok(Self { params, encoder, enc, dec, rlk, slots, cts, pt_slots, pts })
    }

    /// Decrypts `ct` and returns its precision in bits,
    /// `−log2(max |slot − expect|)`; `None` below [`CKKS_MIN_BITS`].
    pub fn check(&self, ct: &CkksCiphertext, expect: &[f64]) -> BenchResult<Option<f64>> {
        let got = self.encoder.decode(&self.dec.decrypt(ct)?)?;
        let worst = got.iter().zip(expect).map(|(g, e)| (g - e).abs()).fold(0.0f64, f64::max);
        let bits = -worst.max(f64::MIN_POSITIVE).log2();
        Ok((got.len() >= expect.len() && bits >= CKKS_MIN_BITS).then_some(bits))
    }

    pub fn ct_index(&self, ct: &CkksCiphertext) -> Option<usize> {
        let key = |c: &CkksCiphertext| c.components()[0][0][..2].to_vec();
        self.cts.iter().position(|c| key(c) == key(ct))
    }

    pub fn pt_index(&self, pt: &CkksPlaintext) -> Option<usize> {
        self.pts.iter().position(|p| p.limbs()[0] == pt.limbs()[0])
    }

    pub fn check_plan(&self, ct: &CkksCiphertext, plan: Plan) -> BenchResult<Option<f64>> {
        let a = &self.slots[plan.a];
        let expect = match plan.op {
            Arith::Add => slotwise_f64(a, &self.slots[plan.b], |x, y| x + y),
            Arith::MulPlain => slotwise_f64(a, &self.pt_slots[plan.b], |x, y| x * y),
            Arith::Mul => slotwise_f64(a, &self.slots[plan.b], |x, y| x * y),
        };
        self.check(ct, &expect)
    }
}

/// FNV-1a over the ciphertext's limb coefficient bytes and its level.
pub fn digest_ckks(ct: &CkksCiphertext) -> u64 {
    let mut h = Fnv::default();
    for component in ct.components() {
        for limb in component {
            h.words(limb);
        }
    }
    h.u64(ct.level().index() as u64);
    h.0
}

pub fn slotwise_f64(a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    a.iter().zip(b).map(|(&x, &y)| f(x, y)).collect()
}
