package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStallsAddTotal(t *testing.T) {
	var s Stalls
	s.Add(Busy, 100)
	s.Add(WBStall, 30)
	s.Add(LockStall, 20)
	if got := s.Total(); got != 150 {
		t.Errorf("Total = %d, want 150", got)
	}
}

func TestStallsFigure9FoldsFlagIntoLock(t *testing.T) {
	var s Stalls
	s.Add(LockStall, 10)
	s.Add(FlagStall, 5)
	s.Add(Busy, 1)
	s.Add(MemStall, 2)
	inv, wb, lock, barrier, rest := s.Figure9()
	if inv != 0 || wb != 0 || barrier != 0 {
		t.Errorf("unexpected nonzero categories: %d %d %d", inv, wb, barrier)
	}
	if lock != 15 {
		t.Errorf("lock = %d, want 15 (lock+flag)", lock)
	}
	if rest != 3 {
		t.Errorf("rest = %d, want 3 (busy+mem)", rest)
	}
}

func TestStallsFigure9Conservation(t *testing.T) {
	f := func(vals [NumStallKinds]uint16) bool {
		var s Stalls
		for i, v := range vals {
			s.Add(StallKind(i), int64(v))
		}
		inv, wb, lock, barrier, rest := s.Figure9()
		return inv+wb+lock+barrier+rest == s.Total()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStallsMerge(t *testing.T) {
	var a, b Stalls
	a.Add(Busy, 1)
	b.Add(Busy, 2)
	b.Add(INVStall, 3)
	a.Merge(&b)
	if a[Busy] != 3 || a[INVStall] != 3 {
		t.Errorf("merge result = %v", a)
	}
}

func TestTrafficFigure10ExcludesSync(t *testing.T) {
	var tr Traffic
	tr.Add(Linefill, 10)
	tr.Add(SyncTraffic, 99)
	lf, wb, inv, memf := tr.Figure10()
	if lf != 10 || wb != 0 || inv != 0 || memf != 0 {
		t.Errorf("Figure10 = %d %d %d %d", lf, wb, inv, memf)
	}
	if tr.Total() != 109 {
		t.Errorf("Total = %d", tr.Total())
	}
}

func TestStallKindStrings(t *testing.T) {
	if Busy.String() != "busy" || BarrierStall.String() != "barrier" {
		t.Error("bad stall names")
	}
	if Linefill.String() != "linefill" || MemoryTraffic.String() != "memory" {
		t.Error("bad traffic names")
	}
	if StallKind(99).String() == "" || TrafficClass(99).String() == "" {
		t.Error("out-of-range names should not be empty")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("b", 2)
	c.Inc("a", 1)
	c.Inc("b", 3)
	if c.Get("b") != 5 || c.Get("a") != 1 || c.Get("missing") != 0 {
		t.Error("counter values wrong")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names = %v", names)
	}
	o := NewCounters()
	o.Inc("a", 10)
	c.Merge(o)
	if c.Get("a") != 11 {
		t.Errorf("merged a = %d", c.Get("a"))
	}
}

func TestFigureRender(t *testing.T) {
	f := &Figure{
		Title:      "Figure 9: test",
		Categories: []string{"inv", "wb"},
		Groups: []Group{
			{Name: "fft", Bars: []Bar{
				{Label: "HCC", Segments: []float64{0, 1}},
				{Label: "Base", Segments: []float64{0.1, 1.1}},
			}},
		},
	}
	out := f.Render()
	for _, want := range []string{"Figure 9", "fft", "HCC", "Base", "1.200"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFigureMeans(t *testing.T) {
	f := &Figure{
		Groups: []Group{
			{Name: "a", Bars: []Bar{{Label: "x", Segments: []float64{1}}}},
			{Name: "b", Bars: []Bar{{Label: "x", Segments: []float64{4}}}},
		},
	}
	if got := f.MeanTotals()["x"]; got != 2.5 {
		t.Errorf("arithmetic mean = %v", got)
	}
}
