// Package power models accelerator power draw and derived
// performance-per-watt, reproducing §III-5(e) and Fig. 16 of the
// paper.
//
// The model is utilisation-based: an accelerator draws its idle floor
// plus a fraction of the dynamic range (TDP − idle) set by how busy
// the binding roofline resources are. Frameworks that drive the
// hardware harder (TRT-LLM) therefore draw more watts *and* deliver
// more tokens/s/W — the paper's central power finding.
package power

import (
	"errors"
	"math"

	"llmbench/internal/hw"
)

// gamma shapes the utilisation → power curve; slightly sublinear so
// partially-busy devices still draw substantial power, as GPUs do.
const gamma = 0.8

// Utilization converts roofline evidence into a device-busy fraction
// in [0,1]. balance is min(computeWall,memoryWall)/max(...) from the
// roofline; occupancy is the fraction of peak batch feeding the device
// (large batches keep SMs resident); drive is the framework's kernel
// efficiency — fused stacks like TRT-LLM keep more of the chip lit per
// byte moved, the mechanism behind Fig. 16's "TRT-LLM consumes more
// power than vLLM due to more utilization of the hardware".
func Utilization(balance, occupancy, drive float64) float64 {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	balance = clamp(balance)
	occupancy = clamp(occupancy)
	drive = clamp(drive)
	return clamp(0.25 + 0.35*balance + 0.15*occupancy + 0.25*drive)
}

// Draw computes the average wattage of a device at the given
// utilisation.
func Draw(d *hw.Device, util float64) (float64, error) {
	if d == nil {
		return 0, errors.New("power: nil device")
	}
	if util < 0 || util > 1 || math.IsNaN(util) {
		return 0, errors.New("power: utilisation out of [0,1]")
	}
	return d.IdleWatts + (d.TDPWatts-d.IdleWatts)*math.Pow(util, gamma), nil
}

// TokensPerSecondPerWatt is the paper's efficiency metric.
func TokensPerSecondPerWatt(throughput, watts float64) float64 {
	if watts <= 0 {
		return 0
	}
	return throughput / watts
}

// Energy returns joules for a run of the given duration at watts.
func Energy(watts, seconds float64) float64 { return watts * seconds }
