package synth

import "math"

// sincos returns math.Sincos(x) bit for bit, faster on the arguments the
// motion model evaluates. It follows the Go standard library's
// math.Sincos (src/math/sincos.go, Copyright 2010 The Go Authors, under
// Go's BSD-style license) line for line, reduction and polynomials
// included, but sets the signs and picks the octant with bit masks
// instead of branches. Branches on the octant are taken at random for
// phases spread over many periods, and each mispredicts half the time.
// Zero, NaN, ±Inf and |x| ≥ 2²⁹ (where math.Sincos switches to
// Payne-Hanek reduction) go to math.Sincos itself.
func sincos(x float64) (sin, cos float64) {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000,
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170,

		signBit         = 1 << 63
		reduceThreshold = 1 << 29
	)
	if x == 0 || !(math.Abs(x) < reduceThreshold) {
		return math.Sincos(x)
	}
	bits := math.Float64bits(x)
	sinSign := bits & signBit
	x = math.Float64frombits(bits &^ signBit)

	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4), as integer for tests on the phase angle
	odd := j & 1                   // map zeros to origin
	j += odd
	y := float64(j) // integer part of x/(Pi/4) rounded up to even, as float
	j &= 7          // octant modulo 2Pi radians (360 degrees)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C

	// j is 0, 2, 4 or 6. Octants 4 and 6 reflect in the x axis, flipping
	// both signs; then octant 2 flips the cosine's sign and swaps the
	// two polynomials.
	reflect := (j >> 2) << 63
	sinSign ^= reflect
	swap := (j >> 1) & 1
	cosSign := reflect ^ swap<<63

	zz := z * z
	c := 1.0 - 0.5*zz + zz*zz*((((((cosCoeffs[0]*zz)+cosCoeffs[1])*zz+cosCoeffs[2])*zz+cosCoeffs[3])*zz+cosCoeffs[4])*zz+cosCoeffs[5])
	s := z + z*zz*((((((sinCoeffs[0]*zz)+sinCoeffs[1])*zz+sinCoeffs[2])*zz+sinCoeffs[3])*zz+sinCoeffs[4])*zz+sinCoeffs[5])
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	d := (sb ^ cb) & -swap
	return math.Float64frombits(sb ^ d ^ sinSign), math.Float64frombits(cb ^ d ^ cosSign)
}

// sinCoeffs and cosCoeffs are math.Sincos's polynomial coefficients
// (_sin and _cos in src/math/sin.go, from Cephes).
var sinCoeffs = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoeffs = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}
