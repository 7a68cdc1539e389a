package hic

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestRunIntraBlockShapes(t *testing.T) {
	res, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figure9.Groups) != 11 {
		t.Fatalf("Figure 9 has %d apps, want 11", len(res.Figure9.Groups))
	}
	for _, g := range res.Figure9.Groups {
		if len(g.Bars) != 5 {
			t.Fatalf("%s has %d bars, want 5", g.Name, len(g.Bars))
		}
		// HCC is the normalization baseline: its bar totals 1.0.
		if h := g.Bars[0].Height(); math.Abs(h-1) > 1e-9 {
			t.Errorf("%s HCC bar = %v, want 1.0", g.Name, h)
		}
		for _, bar := range g.Bars {
			if len(bar.Segments) != 5 {
				t.Errorf("%s/%s has %d segments", g.Name, bar.Label, len(bar.Segments))
			}
			if bar.Height() <= 0 {
				t.Errorf("%s/%s bar empty", g.Name, bar.Label)
			}
		}
	}
	for _, g := range res.Figure10.Groups {
		if len(g.Bars) != 2 {
			t.Fatalf("Figure 10 %s has %d bars, want 2 (HCC, B+M+I)", g.Name, len(g.Bars))
		}
		if h := g.Bars[0].Height(); math.Abs(h-1) > 1e-9 {
			t.Errorf("%s HCC traffic = %v, want 1.0", g.Name, h)
		}
	}
	// The headline paper shapes, at test scale in relaxed form: B+M+I
	// must beat Base on average, and Base must be slower than HCC.
	means := res.Figure9.MeanTotals()
	if means["Base"] <= 1.0 {
		t.Errorf("Base mean %v should exceed HCC's 1.0", means["Base"])
	}
	if means["B+M+I"] >= means["Base"] {
		t.Errorf("B+M+I mean %v should be below Base mean %v", means["B+M+I"], means["Base"])
	}
	// HCC produces invalidation traffic; B+M+I produces none.
	for _, g := range res.Figure10.Groups {
		if g.Bars[1].Segments[2] != 0 {
			t.Errorf("%s: B+M+I shows invalidation traffic", g.Name)
		}
	}
}

func TestRunInterBlockShapes(t *testing.T) {
	res, err := RunInter(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Figure12.Groups) != 4 {
		t.Fatalf("Figure 12 has %d apps, want 4", len(res.Figure12.Groups))
	}
	for _, g := range res.Figure12.Groups {
		if len(g.Bars) != 4 {
			t.Fatalf("%s has %d bars, want 4", g.Name, len(g.Bars))
		}
		if math.Abs(g.Bars[0].Height()-1) > 1e-9 {
			t.Errorf("%s HCC bar not 1.0", g.Name)
		}
	}
	byName := map[string][]float64{}
	for _, g := range res.Figure11.Groups {
		if len(g.Bars) != 2 {
			t.Fatalf("Figure 11 %s has %d bars", g.Name, len(g.Bars))
		}
		byName[g.Name] = g.Bars[1].Segments // Addr+L: [wb, inv] fractions
	}
	// Jacobi benefits sharply; CG keeps its global WBs but drops INVs;
	// EP keeps everything (pure reduction).
	if f := byName["jacobi"][0]; f > 0.6 {
		t.Errorf("jacobi global WB fraction = %v, want < 0.6", f)
	}
	if f := byName["jacobi"][1]; f > 0.6 {
		t.Errorf("jacobi global INV fraction = %v, want < 0.6", f)
	}
	if f := byName["cg"][0]; f < 0.95 {
		t.Errorf("cg global WB fraction = %v, want ~1.0", f)
	}
	if f := byName["cg"][1]; f >= 1.0 || f == 0 {
		t.Errorf("cg global INV fraction = %v, want in (0,1)", f)
	}
	if f := byName["ep"][0]; f < 0.95 {
		t.Errorf("ep global WB fraction = %v, want ~1.0", f)
	}
	// Base is the slowest configuration on average; Addr+L is not
	// meaningfully slower than Addr (at test scale the two differ by
	// noise on the reduction-bound apps, so allow a small tolerance).
	means := res.Figure12.MeanTotals()
	if means["Base"] <= means["Addr"] {
		t.Errorf("expected Base > Addr, got Base=%v Addr=%v", means["Base"], means["Addr"])
	}
	if means["Addr+L"] > means["Addr"]*1.02 {
		t.Errorf("Addr+L mean %v well above Addr mean %v", means["Addr+L"], means["Addr"])
	}
}

func TestPatternTable(t *testing.T) {
	out, err := PatternTable(ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fft", "cholesky", "raytrace", "barrier", "outside-critical", "lock="} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
	// The intra sweep's own Base cells render the same table, and a
	// sweep without them refuses to render one.
	res, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if from, err := res.PatternTable(ScaleTest); err != nil || from != out {
		t.Errorf("Table I from the sweep (err %v):\n%s\nwant:\n%s", err, from, out)
	}
	res, err = RunIntra(context.Background(), ScaleTest, WithOnly("fft"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.PatternTable(ScaleTest); err == nil {
		t.Error("Table I rendered from a sweep missing ten Base cells")
	}
}

func TestStorageReport(t *testing.T) {
	r := StorageReport()
	if kb := r.Savings().KB(); kb < 95 || kb > 110 {
		t.Errorf("storage savings = %.1f KB, want ~102", kb)
	}
}

func TestFigureRendersNonEmpty(t *testing.T) {
	res, err := RunIntra(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if out := res.Figure9.Render(); !strings.Contains(out, "Figure 9") {
		t.Error("figure 9 render broken")
	}
}

func TestAppTableNames(t *testing.T) {
	// Sweeps list and filter their cells by the table names without
	// building anything, so each name must be the one its constructor
	// sets, at every scale.
	for _, s := range []Scale{ScaleTest, ScaleBench} {
		check := func(name, built string) {
			if name != built {
				t.Errorf("scale %s: table name %q, constructor sets %q", s.Name(), name, built)
			}
		}
		for _, a := range intraApps {
			check(a.name, a.build(s, intraThreads).Name)
		}
		for _, a := range interApps {
			check(a.name, a.build(s, interThreads).Name)
		}
		for _, a := range manycoreApps {
			check(a.name, a.build(s, DefaultManycoreCoresPerBlock).Name)
		}
	}
}

func TestManycoreBlockCounts(t *testing.T) {
	for _, tc := range []struct {
		max        int
		n, largest int
	}{
		{1, 1, 1},
		{128, 8, 128},
		{200, 8, 128},
		// Doubling past the largest power of two must end the list, not
		// wrap around and loop forever.
		{math.MaxInt, strconv.IntSize - 1, math.MaxInt/2 + 1},
	} {
		got := ManycoreBlockCounts(tc.max)
		if len(got) != tc.n || got[len(got)-1] != tc.largest {
			t.Errorf("ManycoreBlockCounts(%d) = %d counts up to %d, want %d up to %d",
				tc.max, len(got), got[len(got)-1], tc.n, tc.largest)
		}
	}
}

func TestCellListsMatchTasks(t *testing.T) {
	// The cell lists are read off the task lists, so they are the
	// tasks' labels in order by construction; this pins that order, the
	// filter, and manycore's (workload, config label) sort.
	only := []string{"jacobi", "fft", "nope"}
	blocks := ManycoreBlockCounts(16)
	for _, tc := range []struct {
		name        string
		cells       [][2]string
		n           int
		first, last string
	}{
		{"intra", IntraCells(), 55, "[fft HCC]", "[water-sp B+M+I]"},
		{"intra-only", IntraCells(only...), 5, "[fft HCC]", "[fft B+M+I]"},
		{"inter", InterCells(), 16, "[ep HCC]", "[jacobi Addr+L]"},
		{"inter-only", InterCells(only...), 4, "[jacobi HCC]", "[jacobi Addr+L]"},
		{"manycore", ManycoreCells(blocks), 10, "[ep blocks-1]", "[jacobi blocks-8]"},
		{"manycore-only", ManycoreCells(blocks, only...), 5, "[jacobi blocks-1]", "[jacobi blocks-8]"},
	} {
		if len(tc.cells) != tc.n {
			t.Errorf("%s: %d cells, want %d", tc.name, len(tc.cells), tc.n)
		}
		if first, last := fmt.Sprint(tc.cells[0]), fmt.Sprint(tc.cells[len(tc.cells)-1]); first != tc.first || last != tc.last {
			t.Errorf("%s: cells run %s .. %s, want %s .. %s", tc.name, first, last, tc.first, tc.last)
		}
	}
	if got := fmt.Sprint(ManycoreCells(blocks, "ep")); got != "[[ep blocks-1] [ep blocks-16] [ep blocks-2] [ep blocks-4] [ep blocks-8]]" {
		t.Errorf("manycore cells = %s, want label order", got)
	}
}
