// Package battery converts the simulator's average-current results into
// device-lifetime projections — the quantity that actually motivates the
// paper ("wearable devices have strict power ... limitations"): a 69 %
// sensor-current reduction only matters through the days of battery life
// it buys.
package battery

import "fmt"

// Pack models a small primary cell or rechargeable battery.
type Pack struct {
	// CapacityUAh is the usable capacity in µAh.
	CapacityUAh float64
	// SelfDischargePerMonth is the fraction of capacity lost per month
	// regardless of load (e.g. 0.02 for a lithium coin cell).
	SelfDischargePerMonth float64
}

// CoinCellCR2032 returns a CR2032-class pack: 225 mAh, ~1 % self-discharge
// per month.
func CoinCellCR2032() Pack {
	return Pack{CapacityUAh: 225_000, SelfDischargePerMonth: 0.01}
}

// SmallLiPo40 returns a 40 mAh wearable LiPo with ~3 % self-discharge per
// month.
func SmallLiPo40() Pack {
	return Pack{CapacityUAh: 40_000, SelfDischargePerMonth: 0.03}
}

// Validate reports whether the pack parameters are physical.
func (p Pack) Validate() error {
	if p.CapacityUAh <= 0 {
		return fmt.Errorf("battery: non-positive capacity %v", p.CapacityUAh)
	}
	if p.SelfDischargePerMonth < 0 || p.SelfDischargePerMonth >= 1 {
		return fmt.Errorf("battery: self-discharge %v outside [0,1)", p.SelfDischargePerMonth)
	}
	return nil
}

// selfDischargeUA converts the monthly self-discharge fraction into an
// equivalent constant current draw.
func (p Pack) selfDischargeUA() float64 {
	const hoursPerMonth = 730.0
	return p.CapacityUAh * p.SelfDischargePerMonth / hoursPerMonth
}

// LifetimeHours returns how long the pack sustains the given average load
// current (µA), accounting for self-discharge. It panics on an invalid
// pack; a non-positive load returns the self-discharge-limited lifetime.
func (p Pack) LifetimeHours(avgLoadUA float64) float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if avgLoadUA < 0 {
		avgLoadUA = 0
	}
	total := avgLoadUA + p.selfDischargeUA()
	if total <= 0 {
		return 0
	}
	return p.CapacityUAh / total
}

// Improvement returns the lifetime ratio of running at optimized vs
// baseline average current — the end-user meaning of the paper's power
// savings. Self-discharge damps the ratio: halving the load does not quite
// double the life.
func (p Pack) Improvement(baselineUA, optimizedUA float64) float64 {
	base := p.LifetimeHours(baselineUA)
	if base == 0 {
		return 0
	}
	return p.LifetimeHours(optimizedUA) / base
}
