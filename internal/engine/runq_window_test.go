package engine_test

import (
	"context"
	"testing"

	hic "repro"
	"repro/internal/engine"
)

// maxHCCSpill is the share of run-queue insertions the intra-block HCC
// cells may send past the calendar window to the overflow heap.
const maxHCCSpill = 0.001

// TestRunqWindowHoldsHCC runs the intra-block HCC cells at test scale
// and checks that their run-queue keys stay inside the calendar window.
// HCC threads move in lockstep, which is what the window is sized for;
// a change that spreads their clocks past it would quietly turn the
// queue back into a heap, with the same output and a slower sweep.
func TestRunqWindowHoldsHCC(t *testing.T) {
	pushes0, spills0 := engine.RunqCounts()
	for _, w := range hic.IntraWorkloads(hic.ScaleTest) {
		c := w.Cell(hic.NewHierarchy(hic.NewIntraMachine(), hic.HCC), hic.HCC)
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatalf("%s/HCC: %v", w.Name, err)
		}
	}
	pushes1, spills1 := engine.RunqCounts()
	pushes, spills := pushes1-pushes0, spills1-spills0
	if pushes == 0 {
		t.Fatal("the HCC cells pushed nothing onto the run queue")
	}
	share := float64(spills) / float64(pushes)
	t.Logf("%d of %d run-queue insertions spilled (%.4f%%)", spills, pushes, 100*share)
	if share > maxHCCSpill {
		t.Errorf("%d of %d run-queue insertions (%.3f%%) missed the calendar window; want at most %.1f%%",
			spills, pushes, 100*share, 100*maxHCCSpill)
	}
}
