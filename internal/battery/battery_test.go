package battery

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLifetimeBasic(t *testing.T) {
	p := Pack{CapacityUAh: 1000} // no self-discharge
	if got := p.LifetimeHours(100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("1000 µAh at 100 µA = %v h, want 10", got)
	}
}

func TestSelfDischargeLimitsIdleLifetime(t *testing.T) {
	p := CoinCellCR2032()
	idle := p.LifetimeHours(0)
	if math.IsInf(idle, 1) || idle <= 0 {
		t.Fatalf("idle lifetime = %v, want finite positive", idle)
	}
	// 1 %/month self-discharge bounds shelf life to ~100 months.
	months := idle / 730
	if months < 50 || months > 150 {
		t.Fatalf("shelf life = %v months, want ~100", months)
	}
}

func TestLifetimeMonotoneInLoad(t *testing.T) {
	p := SmallLiPo40()
	f := func(aRaw, bRaw uint16) bool {
		a, b := float64(aRaw)+1, float64(bRaw)+1
		if a > b {
			a, b = b, a
		}
		return p.LifetimeHours(a) >= p.LifetimeHours(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestImprovementDampedBySelfDischarge(t *testing.T) {
	ideal := Pack{CapacityUAh: 40_000}
	leaky := SmallLiPo40()
	// Paper-class saving: 180 µA baseline → 56 µA optimized.
	idealRatio := ideal.Improvement(180, 56)
	leakyRatio := leaky.Improvement(180, 56)
	if math.Abs(idealRatio-180.0/56) > 1e-9 {
		t.Fatalf("ideal ratio = %v, want %v", idealRatio, 180.0/56)
	}
	if leakyRatio >= idealRatio {
		t.Fatal("self-discharge should damp the improvement")
	}
	if leakyRatio < 2 {
		t.Fatalf("leaky ratio = %v, still expect a substantial win", leakyRatio)
	}
}

func TestValidate(t *testing.T) {
	bad := []Pack{
		{CapacityUAh: 0},
		{CapacityUAh: -1},
		{CapacityUAh: 100, SelfDischargePerMonth: -0.1},
		{CapacityUAh: 100, SelfDischargePerMonth: 1},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid pack accepted", i)
		}
	}
	if CoinCellCR2032().Validate() != nil || SmallLiPo40().Validate() != nil {
		t.Fatal("presets invalid")
	}
}

func TestNegativeLoadClamps(t *testing.T) {
	p := SmallLiPo40()
	if p.LifetimeHours(-5) != p.LifetimeHours(0) {
		t.Fatal("negative load should clamp to 0")
	}
}

func TestImprovementZeroBase(t *testing.T) {
	p := Pack{CapacityUAh: 100, SelfDischargePerMonth: 0}
	// Zero load and zero self-discharge: lifetime defined as 0 → ratio 0.
	if p.Improvement(0, 0) != 0 {
		t.Fatalf("Improvement with zero base = %v", p.Improvement(0, 0))
	}
}
