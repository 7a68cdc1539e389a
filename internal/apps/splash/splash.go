// Package splash provides scaled-down reimplementations of the SPLASH-2
// applications the paper uses for intra-block evaluation (Section VI):
// FFT, LU (contiguous and non-contiguous), Cholesky, Barnes, Raytrace,
// Volrend, Ocean (contiguous and non-contiguous), and Water (nsquared and
// spatial). Each kernel reproduces its Table I communication-pattern mix —
// barriers, critical sections, flags, outside-critical-section
// communication, and data races — with real shared-memory computation over
// the simulated address space, scaled so cycle-level simulation stays
// fast. Every kernel self-verifies against a sequential reference, so a
// configuration that misses a required WB or INV fails the run rather than
// silently reporting timing for a wrong execution.
//
// Arithmetic is exact (uint32 wraparound, integer averages), which makes
// verification bit-exact, and all per-molecule/per-cell accumulations are
// commutative so results are independent of dynamic task assignment.
package splash

// Size selects a problem scale.
type Size int

const (
	// Test is small enough for unit tests across every configuration.
	Test Size = iota
	// Bench is the scale used by the Figure 9/10 harness.
	Bench
)

// pick returns a or b depending on sz.
func pick(sz Size, test, bench int) int {
	if sz == Test {
		return test
	}
	return bench
}
