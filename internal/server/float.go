package server

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// Decimal-to-float64 conversion for scanFloat: Clinger's exact fast path
// and the Eisel–Lemire algorithm (Lemire, "Number Parsing at a Gigabyte per
// Second", 2021), the two steps strconv.ParseFloat itself tries before its
// slow path. Each either returns the correctly rounded float64 or declines;
// a decline sends the literal to strconv.ParseFloat. See DESIGN.md §12.

// pow10f holds the powers of ten a float64 represents exactly.
var pow10f = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// clinger returns mant·10^e when both factors are exact float64s, so one
// IEEE multiply or divide rounds the exact product correctly: mant < 2^53
// and |e| <= 22. Up to 15 more powers of ten move into mant while it stays
// an exact integer (<= 1e15), as in strconv. e is a copy: the caller's
// exponent, which Eisel–Lemire needs next, is unchanged.
func clinger(mant uint64, e int, neg bool) (float64, bool) {
	if mant>>53 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case e == 0:
		return f, true
	case -22 <= e && e < 0:
		return f / pow10f[-e], true
	case 0 < e && e <= 22+15:
		if e > 22 {
			f *= pow10f[e-22]
			e = 22
			if f > 1e15 || f < -1e15 {
				return 0, false
			}
		}
		return f * pow10f[e], true
	}
	return 0, false
}

// The power-of-ten table spans every exponent Eisel–Lemire can resolve for
// a 19-digit mantissa; outside it the result is zero or infinite.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow128 is the 128-bit mantissa of a power of ten, normalized so the top
// bit is set and rounded down.
type pow128 struct{ hi, lo uint64 }

type pow10Table [maxPow10 - minPow10 + 1]pow128

// powersOfTen returns the table, built on first use rather than at init:
// the build costs well under a millisecond, but a process that never
// decodes a series never pays it.
var powersOfTen = sync.OnceValue(func() *pow10Table {
	t := new(pow10Table)
	var buf [16]byte
	set := func(e int, m *big.Int) {
		m.FillBytes(buf[:])
		t[e-minPow10] = pow128{binary.BigEndian.Uint64(buf[:8]), binary.BigEndian.Uint64(buf[8:])}
	}
	ten := big.NewInt(10)
	p, m := big.NewInt(1), new(big.Int)
	for e := 0; e <= maxPow10; e++ {
		// The top 128 bits of 10^e.
		if s := p.BitLen() - 128; s >= 0 {
			m.Rsh(p, uint(s))
		} else {
			m.Lsh(p, uint(-s))
		}
		set(e, m)
		p.Mul(p, ten)
	}
	p.SetInt64(1)
	for e := -1; e >= minPow10; e-- {
		// 10^e = 2^-(n+127) · 2^(n+127)/10^-e; with n the bit length of
		// 10^-e, which is not a power of two, the floored quotient lies in
		// [2^127, 2^128).
		p.Mul(p, ten)
		m.Lsh(big.NewInt(1), uint(p.BitLen()+127))
		set(e, m.Quo(m, p))
	}
	return t
})

// eiselLemire returns the float64 nearest mant·10^e10, mant != 0, from the
// 128-bit product of mant and the truncated power of ten. It declines when
// the truncation could change the rounding, when the value lies exactly
// halfway between two float64s (ties-to-even needs the exact value), and
// when the result is subnormal or overflows.
func eiselLemire(mant uint64, e10 int, neg bool, pow *pow10Table) (float64, bool) {
	if e10 < minPow10 || e10 > maxPow10 {
		return 0, false
	}
	p := &pow[e10-minPow10]
	lz := bits.LeadingZeros64(mant)
	mant <<= lz
	// 217706/2^16 approximates log2(10); exp2 is the biased binary exponent
	// of the product, give or take the one bit fixed below.
	exp2 := uint64(217706*e10>>16+64+1023) - uint64(lz)
	hi, lo := bits.Mul64(mant, p.hi)
	if hi&0x1ff == 0x1ff && lo+mant < mant {
		// The 64 bits below the rounding point are all ones and the
		// dropped low word could carry into them: widen to 192 bits.
		whi, wlo := bits.Mul64(mant, p.lo)
		mlo, carry := bits.Add64(lo, whi, 0)
		mhi := hi + carry
		if mhi&0x1ff == 0x1ff && mlo+1 == 0 && wlo+mant < mant {
			return 0, false
		}
		hi, lo = mhi, mlo
	}
	top := hi >> 63
	m := hi >> (top + 9) // 54 bits: the mantissa and a rounding bit
	exp2 -= 1 ^ top
	if lo == 0 && hi&0x1ff == 0 && m&3 == 1 {
		return 0, false
	}
	m = (m + m&1) >> 1
	if m>>53 != 0 {
		m >>= 1
		exp2++
	}
	if exp2-1 >= 0x7ff-1 {
		return 0, false
	}
	b := exp2<<52 | m&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}
