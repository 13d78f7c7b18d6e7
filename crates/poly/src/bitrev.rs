//! Bit-reversal permutation.
//!
//! The iterative NTT consumes or produces data in bit-reversed index
//! order. CoFHEE exposes this as a first-class memory operation — the
//! `MEMCPYR` command of Table I ("memory data transfer in bit-reverse") —
//! so the host or DMA engine can reorder polynomials while they move
//! between SRAMs.

/// Reverses the lowest `bits` bits of `index`.
///
/// # Examples
///
/// ```
/// use cofhee_poly::bitrev::bit_reverse;
///
/// assert_eq!(bit_reverse(0b001, 3), 0b100);
/// assert_eq!(bit_reverse(0b110, 3), 0b011);
/// ```
#[inline]
pub fn bit_reverse(index: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    index.reverse_bits() >> (usize::BITS - bits)
}

/// Permutes a slice into bit-reversed order in place.
///
/// # Panics
///
/// Panics if the slice length is not a power of two.
pub fn bitrev_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "bit-reversal needs a power-of-two length");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = bit_reverse(i, bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reverse_known_patterns() {
        assert_eq!(bit_reverse(0, 4), 0);
        assert_eq!(bit_reverse(1, 4), 8);
        assert_eq!(bit_reverse(0b1010, 4), 0b0101);
        assert_eq!(bit_reverse(5, 0), 0);
    }

    #[test]
    fn permute_is_involution() {
        let original: Vec<u32> = (0..64).collect();
        let mut data = original.clone();
        bitrev_permute(&mut data);
        assert_ne!(data, original);
        bitrev_permute(&mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn permute_length_one_and_two() {
        let mut one = [7u8];
        bitrev_permute(&mut one);
        assert_eq!(one, [7]);
        let mut two = [1u8, 2];
        bitrev_permute(&mut two);
        assert_eq!(two, [1, 2]);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn permute_rejects_non_power_of_two() {
        let mut data = [1u8, 2, 3];
        bitrev_permute(&mut data);
    }
}
