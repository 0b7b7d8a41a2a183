//! Bit-true two's-complement fixed-point value helpers.
//!
//! The RTL backend (`mwl_rtl`) gives the abstract datapath a concrete
//! arithmetic semantics: every value is a signed two's-complement word of a
//! known wordlength, arithmetic wraps at the wordlength boundary, widening is
//! sign-extension and narrowing is truncation (keeping the low bits).  The
//! helpers here define that semantics once, independently of both the
//! netlist simulator and the reference evaluator, so the two can be checked
//! bit-exactly against each other.
//!
//! Values are carried in *canonical* form: an `i64` whose numerical value
//! lies in `[-2^(w-1), 2^(w-1) - 1]` for wordlength `w`.  The canonical form
//! of a 64-bit word is the `i64` itself, so every supported wordlength
//! (1 through [`MAX_SIM_WORDLENGTH`]) round-trips losslessly.

/// Largest wordlength the bit-true helpers (and therefore the RTL backend)
/// support.  `MAX_WORDLENGTH` (1024 bits) is far larger because the *cost*
/// models never materialise values; simulation does, and packs each value
/// into an `i64`.
pub const MAX_SIM_WORDLENGTH: u32 = 64;

/// Asserts that a wordlength is supported by the bit-true helpers.
///
/// # Panics
///
/// Panics if `width` is zero or exceeds [`MAX_SIM_WORDLENGTH`].  Callers that
/// need a recoverable check (e.g. the RTL lowering, which must reject graphs
/// with >64-bit product widths) test the range themselves first.
#[inline]
fn assert_width(width: u32) {
    assert!(
        (1..=MAX_SIM_WORDLENGTH).contains(&width),
        "wordlength {width} outside supported range 1..={MAX_SIM_WORDLENGTH}"
    );
}

/// Smallest value representable in `width` bits (two's complement).
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::min_value;
/// assert_eq!(min_value(1), -1);
/// assert_eq!(min_value(8), -128);
/// assert_eq!(min_value(64), i64::MIN);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn min_value(width: u32) -> i64 {
    assert_width(width);
    if width == 64 {
        i64::MIN
    } else {
        -(1i64 << (width - 1))
    }
}

/// Largest value representable in `width` bits (two's complement).
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::max_value;
/// assert_eq!(max_value(1), 0);
/// assert_eq!(max_value(8), 127);
/// assert_eq!(max_value(64), i64::MAX);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn max_value(width: u32) -> i64 {
    assert_width(width);
    if width == 64 {
        i64::MAX
    } else {
        (1i64 << (width - 1)) - 1
    }
}

/// Wraps an arbitrary `i64` into the canonical representative of its residue
/// class modulo `2^width` — the hardware semantics of storing a value into a
/// `width`-bit register (overflow wraps, no saturation).
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::wrap_to_width;
/// assert_eq!(wrap_to_width(127, 8), 127);
/// assert_eq!(wrap_to_width(128, 8), -128); // overflow wraps
/// assert_eq!(wrap_to_width(-129, 8), 127);
/// assert_eq!(wrap_to_width(300, 64), 300);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn wrap_to_width(value: i64, width: u32) -> i64 {
    assert_width(width);
    let shift = 64 - width;
    // Shift the low `width` bits to the top, then arithmetic-shift back:
    // the result is sign-extended from bit `width - 1`.
    (value << shift) >> shift
}

/// Wraps a 128-bit intermediate (e.g. a full product) into `width` bits.
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::wrap_i128_to_width;
/// assert_eq!(wrap_i128_to_width(1 << 70, 16), 0);
/// assert_eq!(wrap_i128_to_width(-1, 16), -1);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn wrap_i128_to_width(value: i128, width: u32) -> i64 {
    assert_width(width);
    wrap_to_width(value as i64, width)
}

/// The raw bit pattern of a canonical `width`-bit value: the low `width`
/// bits, zero-padded to 64 — what would sit on a `width`-bit bus.
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::to_bits;
/// assert_eq!(to_bits(-1, 8), 0xFF);
/// assert_eq!(to_bits(5, 8), 0x05);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn to_bits(value: i64, width: u32) -> u64 {
    assert_width(width);
    if width == 64 {
        value as u64
    } else {
        (value as u64) & ((1u64 << width) - 1)
    }
}

/// Interprets the low `width` bits of a bus word as a signed value
/// (sign-extension from bit `width - 1`); the inverse of [`to_bits`].
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::from_bits;
/// assert_eq!(from_bits(0xFF, 8), -1);
/// assert_eq!(from_bits(0x7F, 8), 127);
/// ```
///
/// # Panics
///
/// Panics if `width` is outside `1..=64`.
#[must_use]
pub fn from_bits(bits: u64, width: u32) -> i64 {
    assert_width(width);
    wrap_to_width(bits as i64, width)
}

/// Adapts a canonical `from`-bit value to `to` bits: sign-extension when
/// widening (the numerical value is preserved), truncation to the low `to`
/// bits when narrowing — the semantics of the RTL backend's explicit width
/// adapters.
///
/// Because canonical values already carry their sign in the `i64`,
/// sign-extension is the identity; truncation is [`wrap_to_width`].
///
/// # Examples
///
/// ```
/// use mwl_model::fixedpoint::adapt_width;
/// // Widening preserves the value.
/// assert_eq!(adapt_width(-3, 4, 12), -3);
/// // Narrowing keeps the low bits (two's-complement truncation).
/// assert_eq!(adapt_width(0x1234, 16, 8), 0x34);
/// assert_eq!(adapt_width(-256, 16, 8), 0);
/// ```
///
/// # Panics
///
/// Panics if either width is outside `1..=64` or if `value` is not canonical
/// at `from` bits (debug assertion).
#[must_use]
pub fn adapt_width(value: i64, from: u32, to: u32) -> i64 {
    assert_width(from);
    assert_width(to);
    debug_assert!(
        (min_value(from)..=max_value(from)).contains(&value),
        "value {value} not canonical at {from} bits"
    );
    if to >= from {
        value
    } else {
        wrap_to_width(value, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors pinning [`wrap_to_width`] at the boundary cases the
    /// simulator depends on, independent of any netlist machinery.
    #[test]
    fn golden_wrap_vectors() {
        // (value, width, expected)
        let golden: &[(i64, u32, i64)] = &[
            // width 1: the two residues are 0 and -1.
            (0, 1, 0),
            (1, 1, -1),
            (2, 1, 0),
            (-1, 1, -1),
            (-2, 1, 0),
            // width 4: range -8..=7.
            (7, 4, 7),
            (8, 4, -8),
            (9, 4, -7),
            (15, 4, -1),
            (16, 4, 0),
            (-8, 4, -8),
            (-9, 4, 7),
            // width 8: classic byte wrap.
            (127, 8, 127),
            (128, 8, -128),
            (255, 8, -1),
            (256, 8, 0),
            (-128, 8, -128),
            (-129, 8, 127),
            (1000, 8, -24), // 1000 = 3*256 + 232; 232 - 256 = -24
            // width 16.
            (32767, 16, 32767),
            (32768, 16, -32768),
            (65536, 16, 0),
            (-32769, 16, 32767),
            // width 24 (a paper-scale accumulator width).
            ((1 << 23) - 1, 24, (1 << 23) - 1),
            (1 << 23, 24, -(1 << 23)),
            // width 63.
            (i64::MAX, 63, -1),
            (i64::MIN, 63, 0),
            // width 64 is the identity.
            (i64::MAX, 64, i64::MAX),
            (i64::MIN, 64, i64::MIN),
            (-42, 64, -42),
        ];
        for &(value, width, expected) in golden {
            assert_eq!(
                wrap_to_width(value, width),
                expected,
                "wrap_to_width({value}, {width})"
            );
        }
    }

    /// Golden vectors for sign-extension / truncation adapters.
    #[test]
    fn golden_adapt_vectors() {
        // (value, from, to, expected)
        let golden: &[(i64, u32, u32, i64)] = &[
            // Sign-extension preserves the value for every widening.
            (-1, 1, 64, -1),
            (-8, 4, 8, -8),
            (7, 4, 32, 7),
            (-100, 8, 24, -100),
            (i64::MIN, 64, 64, i64::MIN),
            // Truncation keeps the low bits.
            (0x55, 8, 4, 5),
            (0x0F0, 12, 8, -16), // low byte 0xF0 -> -16
            (-1, 16, 8, -1),     // all-ones stays all-ones
            (0x4000, 16, 15, -16384),
            (258, 16, 8, 2),
            (-32768, 16, 1, 0),
            (-32767, 16, 1, -1),
        ];
        for &(value, from, to, expected) in golden {
            assert_eq!(
                adapt_width(value, from, to),
                expected,
                "adapt_width({value}, {from}, {to})"
            );
        }
    }

    /// Golden vectors for the bus representation round-trip.
    #[test]
    fn golden_bit_vectors() {
        let golden: &[(i64, u32, u64)] = &[
            (-1, 1, 0x1),
            (0, 1, 0x0),
            (-1, 8, 0xFF),
            (-128, 8, 0x80),
            (127, 8, 0x7F),
            (-1, 24, 0xFF_FFFF),
            (-1, 64, u64::MAX),
            (i64::MIN, 64, 0x8000_0000_0000_0000),
        ];
        for &(value, width, bits) in golden {
            assert_eq!(to_bits(value, width), bits, "to_bits({value}, {width})");
            assert_eq!(
                from_bits(bits, width),
                value,
                "from_bits({bits:#x}, {width})"
            );
        }
    }

    /// Every width 1..=64: min/max are canonical fixed points, overflow wraps
    /// to the opposite end, and the bit round-trip is the identity on the
    /// extremes.
    #[test]
    fn all_widths_boundary_behaviour() {
        for width in 1..=MAX_SIM_WORDLENGTH {
            let lo = min_value(width);
            let hi = max_value(width);
            assert!(lo < 0 && hi >= 0, "width {width}");
            assert_eq!(wrap_to_width(lo, width), lo, "width {width}");
            assert_eq!(wrap_to_width(hi, width), hi, "width {width}");
            // hi + 1 wraps to lo; lo - 1 wraps to hi (mod 2^w arithmetic).
            assert_eq!(
                wrap_to_width(hi.wrapping_add(1), width),
                lo,
                "width {width}"
            );
            assert_eq!(
                wrap_to_width(lo.wrapping_sub(1), width),
                hi,
                "width {width}"
            );
            // Bus round-trip.
            for v in [lo, -1, 0, 1.min(hi), hi] {
                assert_eq!(from_bits(to_bits(v, width), width), v, "width {width}");
            }
            // Widening then truncating back is the identity.
            for v in [lo, -1, 0, hi] {
                let wide = adapt_width(v, width, MAX_SIM_WORDLENGTH);
                assert_eq!(adapt_width(wide, MAX_SIM_WORDLENGTH, width), v);
            }
        }
    }

    /// Truncation is a ring homomorphism: the low bits of a sum/product only
    /// depend on the low bits of the operands.  This is the algebraic fact
    /// that makes executing a small operation on a *wider* shared resource
    /// bit-exact, i.e. the correctness kernel of the whole RTL backend.
    #[test]
    fn truncation_commutes_with_arithmetic() {
        let samples: &[i64] = &[-130, -128, -127, -17, -1, 0, 1, 5, 127, 128, 255, 1000];
        for &x in samples {
            for &y in samples {
                for (narrow, wide) in [(4u32, 9u32), (8, 16), (12, 20), (16, 40)] {
                    let xs = wrap_to_width(x, wide);
                    let ys = wrap_to_width(y, wide);
                    // Sum computed wide then truncated == computed narrow.
                    assert_eq!(
                        wrap_to_width(xs + ys, narrow),
                        wrap_to_width(
                            wrap_to_width(xs, narrow) + wrap_to_width(ys, narrow),
                            narrow
                        )
                    );
                    // Same for products (via i128 to avoid i64 overflow).
                    assert_eq!(
                        wrap_i128_to_width(i128::from(xs) * i128::from(ys), narrow),
                        wrap_i128_to_width(
                            i128::from(wrap_to_width(xs, narrow))
                                * i128::from(wrap_to_width(ys, narrow)),
                            narrow
                        )
                    );
                }
            }
        }
    }

    /// A full product of an `a`-bit by `b`-bit multiplication always fits in
    /// `a + b` bits, so truncating the wide shared multiplier's output to
    /// `a + b` bits is lossless.
    #[test]
    fn product_fits_in_sum_of_widths() {
        for a in 1..=8u32 {
            for b in 1..=8u32 {
                for x in min_value(a)..=max_value(a) {
                    for y in min_value(b)..=max_value(b) {
                        let p = i128::from(x) * i128::from(y);
                        assert_eq!(
                            i128::from(wrap_i128_to_width(p, a + b)),
                            p,
                            "{a}x{b}-bit product {x}*{y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn zero_width_rejected() {
        let _ = wrap_to_width(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside supported range")]
    fn oversized_width_rejected() {
        let _ = wrap_to_width(0, 65);
    }
}
