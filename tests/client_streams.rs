//! Client ops as command streams, pinned from outside: key generation,
//! encryption and decryption of both schemes run on a `LimbEngine` the
//! client object owns (CKKS limbs at their own word width), and every
//! bit they produce is the bit the host polynomial type produced before
//! the streams — the digests below were computed on that path, at the
//! commit before the streams, and are written in as constants. A
//! relinearization key is stored in NTT form now; its digest is still the
//! parent's, over the raw key, which this file recovers with the strict
//! inverse kernel — same key, same draws. The oracle half (the same
//! results against the formulas evaluated on plain vectors by the strict
//! kernels) is `client_parity.rs`; engine-side properties that need the
//! objects' private engines (transform counts, pool residency, nothing
//! uploaded on a refusal) are unit tests beside the code.

use cofhee::arith::{primes, Barrett128};
use cofhee::bfv::{BfvError, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{
    CkksCiphertext, CkksDecryptor, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator,
    CkksKeyGenerator, CkksParams, CkksPlaintext,
};
use cofhee::core::KeyPair;
use cofhee::poly::ntt::{self, NttTables};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of each word.
fn fnv(words: impl IntoIterator<Item = u128>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The raw polynomials behind stored NTT-form `(k0, k1)` pairs, word by
/// word in key order: the strict inverse kernel, not the one that made
/// the key.
fn raw_key_words(
    ring: &Barrett128,
    tables: &NttTables<Barrett128>,
    pairs: &[KeyPair],
) -> Vec<u128> {
    let mut words = Vec::new();
    for stored in pairs.iter().flat_map(|(k0, k1)| [k0, k1]) {
        let mut raw = stored.to_vec();
        ntt::inverse_inplace(ring, &mut raw, tables).unwrap();
        words.extend(raw);
    }
    words
}

fn fnv_ckks(ct: &CkksCiphertext) -> u64 {
    fnv(ct.components().iter().flatten().flatten().copied())
}

/// `[sk, encrypt, decrypt, 3-component decrypt, noise budget bits of the
/// 2- and of the 3-component ciphertext, relin key (base 2^16, drawn
/// last)]` at a fixed seed.
fn bfv_digests(params: &BfvParams, seed: u64) -> [u64; 7] {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(params, &mut rng);
    let enc = Encryptor::new(params, kg.public_key(&mut rng).unwrap());
    let dec = Decryptor::new(params, kg.secret_key().clone());
    let t = params.t();
    let coeffs = (0..params.n() as u64).map(|i| (i * 991 + 7) % t).collect();
    let ct = enc.encrypt(&Plaintext::new(params, coeffs).unwrap(), &mut rng).unwrap();
    let cubic = Evaluator::new(params).unwrap().multiply(&ct, &ct).unwrap();
    assert_eq!((ct.len(), cubic.len()), (2, 3));
    let plain = |pt: Plaintext| fnv(pt.coeffs().iter().map(|&c| u128::from(c)));
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let ring = Barrett128::new(params.q()).unwrap();
    let tables = NttTables::new(&ring, params.n()).unwrap();
    [
        fnv(kg.secret_key().poly().coeffs().iter().copied()),
        fnv(ct.polys().iter().flat_map(|p| p.coeffs().iter().copied())),
        plain(dec.decrypt(&ct).unwrap()),
        plain(dec.decrypt(&cubic).unwrap()),
        dec.noise_budget(&ct).unwrap().to_bits(),
        dec.noise_budget(&cubic).unwrap().to_bits(),
        fnv(raw_key_words(&ring, &tables, rlk.parts())),
    ]
}

/// `[relin key, encrypt, decrypt, 3-component decrypt, encrypt one level
/// down, its decrypt]` at a fixed seed. The public key is pinned by the
/// ciphertexts it masks, `s` and `s²` by the decryptions.
fn ckks_digests(params: &CkksParams, seed: u64) -> [u64; 6] {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = CkksKeyGenerator::new(params);
    let sk = kg.secret_key(&mut rng).unwrap();
    let enc = CkksEncryptor::new(params, kg.public_key(&sk, &mut rng).unwrap());
    let rlk = kg.relin_key(&sk, &mut rng).unwrap();
    let dec = CkksDecryptor::new(params, sk);
    let encoder = CkksEncoder::new(params);
    let values: Vec<f64> = (0..params.slots()).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    let ct = enc.encrypt(&encoder.encode(&values).unwrap(), &mut rng).unwrap();
    let cubic = CkksEvaluator::new(params).unwrap().multiply(&ct, &ct).unwrap();
    let lower = params.top_level().lower().unwrap();
    let below = encoder.encode_at(&values, lower, params.scale()).unwrap();
    let ct_below = enc.encrypt(&below, &mut rng).unwrap();
    assert_eq!((ct.len(), cubic.len(), ct_below.level()), (2, 3, lower));
    let plain = |pt: CkksPlaintext| fnv(pt.limbs().iter().flatten().copied());
    let key_words = (0..params.moduli().len()).flat_map(|j| {
        let tables = NttTables::new(params.ring(j), params.n()).unwrap();
        raw_key_words(params.ring(j), &tables, rlk.limb_parts(j))
    });
    [
        fnv(key_words),
        fnv_ckks(&ct),
        plain(dec.decrypt(&ct).unwrap()),
        plain(dec.decrypt(&cubic).unwrap()),
        fnv_ckks(&ct_below),
        plain(dec.decrypt(&ct_below).unwrap()),
    ]
}

/// The benchmark's 109-bit chain (43 + 33 + 33 bits, Δ = 2^33, 18-bit
/// digits) at degree `n`.
fn ckks_109(n: usize) -> CkksParams {
    let mut moduli = vec![primes::ntt_prime(43, n).unwrap()];
    moduli.extend(primes::ntt_primes(33, n, 2).unwrap());
    CkksParams::new(n, moduli, (1u64 << 33) as f64, 18).unwrap()
}

/// Computed at the parent commit (client path on the host polynomial type, CKKS limbs
/// on `Barrett128`; the relin-key digests at the last commit that stored
/// the key raw): `[n = 2^8, the paper's n = 2^13]`.
const PARENT_BFV: [[u64; 7]; 2] = [
    [
        0x5c1f_cc5c_6ac9_5d54,
        0x1887_4855_e304_28bc,
        0xe953_22af_04be_2b5c,
        0xdb5f_e162_af05_8520,
        0x4041_ebe0_7f63_968e,
        0x4014_c526_0657_e570,
        0xea17_767c_3499_c0a2,
    ],
    [
        0xabb0_4fe7_c140_5b6b,
        0xc1cf_b18f_a67b_a9d4,
        0x84ec_b801_27be_28b3,
        0x49f5_b0c8_fc28_42d6,
        0x4053_6aec_57e5_792b,
        0x4042_2999_759e_1530,
        0xffd8_73ac_1fc9_2d59,
    ],
];
const PARENT_CKKS: [[u64; 6]; 2] = [
    [
        0x0ebd_9c09_0dd1_7652,
        0x0b4c_0dc2_ffb4_9424,
        0xc06f_4494_2d32_04e2,
        0xecf3_d74e_1276_c1de,
        0x993c_a818_5aec_b3a4,
        0xc23c_667e_1182_0e2d,
    ],
    [
        0x3aa3_365b_b3bf_f713,
        0xb29f_7267_a178_dbf1,
        0x974b_8dda_337e_6166,
        0x9bd4_de91_b648_c902,
        0xd76f_94c2_59b8_b0cb,
        0xb9fc_7b21_333f_68b6,
    ],
];

#[test]
fn bfv_keys_ciphertexts_and_plaintexts_are_the_parents_bit_for_bit() {
    let got = [
        bfv_digests(&BfvParams::insecure_testing(1 << 8).unwrap(), 0xb1f5),
        bfv_digests(&BfvParams::paper_n13_single_tower().unwrap(), 2023),
    ];
    assert_eq!(got, PARENT_BFV, "{got:#x?}");
}

#[test]
fn ckks_keys_ciphertexts_and_plaintexts_are_the_parents_bit_for_bit() {
    let got = [
        ckks_digests(&CkksParams::insecure_testing(1 << 8).unwrap(), 0xcc55),
        ckks_digests(&ckks_109(1 << 13), 2023),
    ];
    assert_eq!(got, PARENT_CKKS, "{got:#x?}");
}

#[test]
fn foreign_operands_are_refused_with_typed_errors() {
    // CKKS: a ciphertext and a plaintext of another degree.
    let longer = CkksParams::insecure_testing(64).unwrap();
    let (scale, w) = (longer.scale(), longer.base_bits());
    let home = CkksParams::new(64, longer.moduli()[..2].to_vec(), scale, w).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let client = |params: &CkksParams, rng: &mut StdRng| {
        let kg = CkksKeyGenerator::new(params);
        let sk = kg.secret_key(rng).unwrap();
        let enc = CkksEncryptor::new(params, kg.public_key(&sk, rng).unwrap());
        (enc, CkksDecryptor::new(params, sk))
    };
    let (enc, dec) = client(&home, &mut rng);
    let other_degree = CkksParams::insecure_testing(128).unwrap();
    let (their_enc, _) = client(&other_degree, &mut rng);
    let pt = CkksEncoder::new(&other_degree).encode(&[0.5, -1.25]).unwrap();
    assert_eq!(enc.encrypt(&pt, &mut rng), Err(CkksError::ParamsMismatch));
    let ct = their_enc.encrypt(&pt, &mut rng).unwrap();
    assert_eq!(dec.decrypt(&ct), Err(CkksError::ParamsMismatch));
    // More limbs than the chain has: a level above its top, carried by
    // a longer chain's value.
    assert!(longer.top_level() > home.top_level());
    let (their_enc, _) = client(&longer, &mut rng);
    let pt = CkksEncoder::new(&longer).encode(&[1.0]).unwrap();
    assert_eq!(enc.encrypt(&pt, &mut rng), Err(CkksError::ParamsMismatch));
    let ct = their_enc.encrypt(&pt, &mut rng).unwrap();
    assert_eq!(dec.decrypt(&ct), Err(CkksError::ParamsMismatch));
    // Another chain of the same shape — primes of the same sizes, limb
    // for limb — whose values look like this chain's: its primes are
    // what tells them apart, for the encryptor, the decryptor and the
    // evaluator alike.
    let chain =
        vec![primes::ntt_primes(50, 64, 2).unwrap()[1], primes::ntt_primes(33, 64, 3).unwrap()[2]];
    assert!(chain.iter().all(|q| !home.moduli().contains(q)));
    let same_shape = CkksParams::new(64, chain, scale, w).unwrap();
    let (their_enc, _) = client(&same_shape, &mut rng);
    let pt = CkksEncoder::new(&same_shape).encode(&[0.5, -1.25]).unwrap();
    assert_eq!(enc.encrypt(&pt, &mut rng), Err(CkksError::ParamsMismatch));
    let ct = their_enc.encrypt(&pt, &mut rng).unwrap();
    assert_eq!(dec.decrypt(&ct), Err(CkksError::ParamsMismatch));
    let ev = CkksEvaluator::new(&home).unwrap();
    let mine = enc.encrypt(&CkksEncoder::new(&home).encode(&[2.0]).unwrap(), &mut rng).unwrap();
    assert_eq!(ev.add(&mine, &ct), Err(CkksError::ParamsMismatch));
    assert_eq!(ev.multiply(&ct, &ct), Err(CkksError::ParamsMismatch));
    assert_eq!(ev.mul_plain(&mine, &pt), Err(CkksError::ParamsMismatch));

    // BFV: a ciphertext of another ring, a plaintext of another degree.
    let home = BfvParams::insecure_testing(32).unwrap();
    let other = BfvParams::insecure_testing(64).unwrap();
    let kit = |params: &BfvParams, rng: &mut StdRng| {
        let kg = KeyGenerator::new(params, rng);
        let enc = Encryptor::new(params, kg.public_key(rng).unwrap());
        (enc, Decryptor::new(params, kg.secret_key().clone()))
    };
    let (enc, dec) = kit(&home, &mut rng);
    let (their_enc, _) = kit(&other, &mut rng);
    let pt = Plaintext::constant(&other, 1).unwrap();
    let ct = their_enc.encrypt(&pt, &mut rng).unwrap();
    assert!(matches!(enc.encrypt(&pt, &mut rng), Err(BfvError::InvalidParams { .. })));
    assert_eq!(dec.decrypt(&ct), Err(BfvError::ParamsMismatch));
    assert_eq!(dec.noise_budget(&ct), Err(BfvError::ParamsMismatch));
}

#[test]
fn client_objects_cross_threads() {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Encryptor>();
    send_sync::<Decryptor>();
    send_sync::<CkksEncryptor>();
    send_sync::<CkksDecryptor>();
    send_sync::<CkksKeyGenerator>();
}
