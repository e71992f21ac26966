package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"adasense/internal/rng"
)

// defaultNaN is the NaN an invalid operation (0·Inf, Inf−Inf, √−1)
// produces on amd64. The tests give every NaN input these bits. Which of
// two different NaNs an operation returns depends on its operand order,
// and Go may commute the operands of a scalar x+y or x·y, so the Go twins
// pin no NaN payload; with one payload in play every NaN result has the
// same bits whatever the order, and every other bit is compared.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// kernelValue draws an input: mostly normal values, with NaN, ±Inf, ±0
// and subnormals mixed in when special is set.
func kernelValue(r *rng.Source, special bool) float64 {
	if !special {
		return r.NormSigma(0, 2)
	}
	switch r.Intn(10) {
	case 0:
		return defaultNaN
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.Copysign(math.Float64frombits(1+r.Uint64()%(1<<52-1)), r.Float64()-0.5)
	default:
		return r.NormSigma(0, 2)
	}
}

// kernelCase holds one set of kernel inputs.
type kernelCase struct {
	w, b, x, out          []float64 // affineT
	d, hidden, w2, g2, dh []float64 // backOutput
	active                []int     // backHidden, with dh, x, gb and g1
	gb, g1                []float64
	p, g, m, v            []float64 // adamStep
	k                     adamConsts
	decay                 bool
}

// newKernelCase fills a kernelCase from next for n units: affineT maps
// in inputs to them, backOutput takes them back from in logits, backHidden
// takes them back to in inputs, and adamStep steps n parameters.
func newKernelCase(in, n int, next func() float64) *kernelCase {
	fill := func(size int) []float64 {
		s := make([]float64, size)
		for i := range s {
			s[i] = next()
		}
		return s
	}
	c := &kernelCase{
		w: fill(in * n), b: fill(n), x: fill(in), out: fill(n),
		d: fill(in), hidden: fill(n), w2: fill(in * n), g2: fill(in * n), dh: fill(n),
		gb: fill(n), g1: fill(n * in),
		p: fill(n), g: fill(n), m: fill(n), v: fill(n),
	}
	for h := 0; h < n; h++ {
		if next() > 0 {
			c.active = append(c.active, h)
		}
	}
	c.k = adamConsts{inv: 1.0 / 16, l2: 1e-4, beta1: 0.9, om1: 1 - 0.9, beta2: 0.999, om2: 1 - 0.999,
		c1: 0.19, c2: 0.002, lr: 3e-3, eps: 1e-8}
	c.decay = next() > 0
	return c
}

func (c *kernelCase) clone() *kernelCase {
	d := *c
	for _, s := range []*[]float64{&d.w, &d.b, &d.x, &d.out, &d.d, &d.hidden, &d.w2, &d.g2, &d.dh,
		&d.gb, &d.g1, &d.p, &d.g, &d.m, &d.v} {
		*s = append([]float64(nil), *s...)
	}
	d.active = append([]int(nil), c.active...)
	return &d
}

// checkKernelsMatchTwins runs each kernel, through its checked wrapper,
// on one copy of c and its Go twin on another, and requires every output
// to match bit for bit.
func checkKernelsMatchTwins(t *testing.T, c *kernelCase) {
	t.Helper()
	got, want := c.clone(), c.clone()
	affineT(got.w, got.b, got.x, got.out)
	affineTGo(want.w, want.b, want.x, want.out)
	backOutput(got.d, got.hidden, got.w2, got.g2, got.dh)
	backOutputGo(want.d, want.hidden, want.w2, want.g2, want.dh)
	backHidden(got.active, got.dh, got.x, got.gb, got.g1)
	backHiddenGo(want.active, want.dh, want.x, want.gb, want.g1)
	adamStep(got.p, got.g, got.m, got.v, &got.k, got.decay)
	adamGo(want.p, want.g, want.m, want.v, &want.k, want.decay)
	for _, o := range []struct {
		name      string
		got, want []float64
	}{
		{"affineT out", got.out, want.out},
		{"backOutput gW", got.g2, want.g2}, {"backOutput dHidden", got.dh, want.dh},
		{"backHidden gB", got.gb, want.gb}, {"backHidden gW", got.g1, want.g1},
		{"adam params", got.p, want.p}, {"adam m", got.m, want.m}, {"adam v", got.v, want.v},
	} {
		if i, ok := sameBits(o.got, o.want); !ok {
			t.Fatalf("in %d, units %d: %s[%d] = %v (%#x), twin %v (%#x)", len(c.x), len(c.b), o.name, i,
				o.got[i], math.Float64bits(o.got[i]), o.want[i], math.Float64bits(o.want[i]))
		}
	}
}

// TestKernelsMatchTwins runs every input and unit count from 0 to 40,
// which reaches every block size and tail of the assembly, on normal
// inputs and on inputs mixed with NaN, ±Inf, ±0 and subnormals.
func TestKernelsMatchTwins(t *testing.T) {
	r := rng.New(71)
	for _, special := range []bool{false, true} {
		next := func() float64 { return kernelValue(r, special) }
		for in := 0; in <= 40; in++ {
			for n := 0; n <= 40; n++ {
				checkKernelsMatchTwins(t, newKernelCase(in, n, next))
			}
		}
	}
}

// TestKernelWrappersCheckLengths requires every checked wrapper to panic
// on a slice too short for its kernel, and backHidden on a listed unit
// outside its layer.
func TestKernelWrappersCheckLengths(t *testing.T) {
	c := newKernelCase(3, 4, func() float64 { return 1 })
	c.active = []int{0, 1, 2, 3}
	for name, call := range map[string]func(c *kernelCase){
		"affineT w":       func(c *kernelCase) { affineT(c.w[:11], c.b, c.x, c.out) },
		"affineT b":       func(c *kernelCase) { affineT(c.w, c.b[:3], c.x, c.out) },
		"backOutput w":    func(c *kernelCase) { backOutput(c.d, c.hidden, c.w2[:11], c.g2, c.dh) },
		"backOutput gW":   func(c *kernelCase) { backOutput(c.d, c.hidden, c.w2, c.g2[:11], c.dh) },
		"backOutput dH":   func(c *kernelCase) { backOutput(c.d, c.hidden, c.w2, c.g2, c.dh[:3]) },
		"backHidden gB":   func(c *kernelCase) { backHidden(c.active, c.dh, c.x, c.gb[:3], c.g1) },
		"backHidden gW":   func(c *kernelCase) { backHidden(c.active, c.dh, c.x, c.gb, c.g1[:11]) },
		"backHidden unit": func(c *kernelCase) { backHidden([]int{0, 4}, c.dh, c.x, c.gb, c.g1) },
		"backHidden -1":   func(c *kernelCase) { backHidden([]int{-1}, c.dh, c.x, c.gb, c.g1) },
		"adamStep g":      func(c *kernelCase) { adamStep(c.p, c.g[:3], c.m, c.v, &c.k, true) },
		"adamStep m":      func(c *kernelCase) { adamStep(c.p, c.g, c.m[:3], c.v, &c.k, true) },
		"adamStep v":      func(c *kernelCase) { adamStep(c.p, c.g, c.m, c.v[:3], &c.k, true) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			call(c.clone())
		})
	}
}

// FuzzKernelsMatchTwins runs the kernels and their twins on inputs read
// from data, eight bytes a value, cycling when data runs out; every NaN
// becomes defaultNaN. in and units pick the layer sizes, 0 to 40.
func FuzzKernelsMatchTwins(f *testing.F) {
	f.Add([]byte{}, uint8(15), uint8(32))
	f.Add(binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))), uint8(3), uint8(6))
	f.Fuzz(func(t *testing.T, data []byte, in, units uint8) {
		values := make([]float64, 0, len(data)/8+1)
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if math.IsNaN(v) {
				v = defaultNaN
			}
			values = append(values, v)
		}
		if len(values) == 0 {
			values = append(values, 1)
		}
		i := 0
		next := func() float64 {
			v := values[i%len(values)]
			i++
			return v
		}
		checkKernelsMatchTwins(t, newKernelCase(int(in%41), int(units%41), next))
	})
}
