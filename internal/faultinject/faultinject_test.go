package faultinject

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", ""},
		{" ; ; ", ""},
		{"drop-wb@3", "drop-wb@3"},
		{"drop-wb@3; drop-wb@3", "drop-wb@3"},
		{"skip-inv@7;drop-wb@9;drop-wb@2", "drop-wb@2; drop-wb@9; skip-inv@7"},
		{"meb-cap=2", "meb-cap=2"},
		{"ieb-lie@0; delay-wb@5", "delay-wb@5; ieb-lie@0"},
		{"seed=11", "seed=11"},
		{"  drop-wb@1 ;  meb-cap=4 ; seed=9 ", "drop-wb@1; meb-cap=4; seed=9"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if got := p.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Round trip.
		p2, err := Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", p.String(), err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Errorf("round trip of %q: %+v != %+v", c.in, p, p2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"bogus",
		"drop-wb@",
		"drop-wb@x",
		"drop-wb@-1",
		"skip-inv@ 3 ", // inner whitespace in the index is rejected
		"meb-cap=0",
		"meb-cap=-2",
		"meb-cap=x",
		"seed=x",
		"drop-wb=3",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestRandResolution(t *testing.T) {
	a := MustParse("drop-wb@rand; skip-inv@rand; seed=42")
	b := MustParse("drop-wb@rand; skip-inv@rand; seed=42")
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed resolved differently: %v vs %v", a, b)
	}
	c := MustParse("drop-wb@rand; skip-inv@rand; seed=43")
	if reflect.DeepEqual(a.DropWB, c.DropWB) && reflect.DeepEqual(a.SkipINV, c.SkipINV) {
		t.Fatalf("different seeds resolved identically: %v", a)
	}
	// Seed placement does not matter.
	d := MustParse("seed=42; drop-wb@rand; skip-inv@rand")
	if !reflect.DeepEqual(a, d) {
		t.Fatalf("seed-first parse differs: %v vs %v", a, d)
	}
	for _, i := range a.DropWB {
		if i >= randIndexSpace {
			t.Errorf("rand index %d out of [0,%d)", i, randIndexSpace)
		}
	}
	// Resolved plans are stable through String (rand disappears).
	if got := a.String(); got != MustParse(got).String() {
		t.Errorf("resolved plan not canonical: %q", got)
	}
}

func TestEmpty(t *testing.T) {
	if !MustParse("").Empty() {
		t.Error("empty string should parse to the empty plan")
	}
	if !MustParse("seed=3").Empty() {
		t.Error("a bare seed injects nothing and should be Empty")
	}
	if MustParse("drop-wb@0").Empty() {
		t.Error("drop-wb plan should not be Empty")
	}
	if MustParse("meb-cap=1").Empty() {
		t.Error("meb-cap plan should not be Empty")
	}
}

func TestStateCursors(t *testing.T) {
	st := NewState(MustParse("drop-wb@1; delay-wb@2; skip-inv@0; ieb-lie@1"))
	wantWB := []WBAction{WBKeep, WBDrop, WBDelay, WBKeep}
	for i, want := range wantWB {
		if got := st.NextWB(); got != want {
			t.Errorf("NextWB #%d = %v, want %v", i, got, want)
		}
	}
	// The oracle replays the same decisions from its own cursor.
	for i, want := range wantWB {
		if got := st.OracleNextWB(); got != want {
			t.Errorf("OracleNextWB #%d = %v, want %v", i, got, want)
		}
	}
	if got := []bool{st.NextINV(), st.NextINV()}; !got[0] || got[1] {
		t.Errorf("NextINV sequence = %v, want [true false]", got)
	}
	if got := []bool{st.NextIEBLie(), st.NextIEBLie(), st.NextIEBLie()}; got[0] || !got[1] || got[2] {
		t.Errorf("NextIEBLie sequence = %v, want [false true false]", got)
	}
	if st.Drops != 1 || st.Delays != 1 || st.Skips != 1 || st.Lies != 1 {
		t.Errorf("drops/delays/skips/lies = %d/%d/%d/%d, want one of each", st.Drops, st.Delays, st.Skips, st.Lies)
	}
	if st.Injected() != 4 {
		t.Errorf("Injected() = %d, want 4", st.Injected())
	}
}

func TestDropWinsOverDelay(t *testing.T) {
	st := NewState(MustParse("drop-wb@0; delay-wb@0"))
	if got := st.NextWB(); got != WBDrop {
		t.Errorf("conflicting drop/delay at same index: got %v, want drop", got)
	}
}

func TestMEBCapAndLostLines(t *testing.T) {
	st := NewState(MustParse("meb-cap=2"))
	if st.MEBOverCap(1, false) {
		t.Error("under cap should not discard")
	}
	if st.MEBOverCap(2, true) {
		t.Error("already-present frame should never discard")
	}
	if !st.MEBOverCap(2, false) {
		t.Error("at cap with a new frame should discard")
	}
	st.NoteMEBLost(mem.Addr(0x100))
	st.NoteMEBLost(mem.Addr(0x140))
	st.FlushMEBLost()
	miss := st.TakeMEBMiss()
	if len(miss) != 2 || !miss[0x100] || !miss[0x140] {
		t.Errorf("TakeMEBMiss = %v, want the two noted lines", miss)
	}
	if st.TakeMEBMiss() != nil {
		t.Error("TakeMEBMiss should consume the set")
	}
	// ClearMEBLost forgets without handing to the oracle.
	st.NoteMEBLost(mem.Addr(0x200))
	st.ClearMEBLost()
	st.FlushMEBLost()
	if st.TakeMEBMiss() != nil {
		t.Error("cleared lines must not reach the oracle")
	}
	if st.MEBDiscards != 3 {
		t.Errorf("MEBDiscards = %d, want 3", st.MEBDiscards)
	}
}

func TestNoFaultStateIsInert(t *testing.T) {
	st := NewState(Plan{})
	for i := 0; i < 100; i++ {
		if st.NextWB() != WBKeep || st.NextINV() || st.NextIEBLie() {
			t.Fatal("empty plan must never inject")
		}
	}
	if st.MEBOverCap(1000, false) {
		t.Error("empty plan must not cap the MEB")
	}
	if st.Injected() != 0 {
		t.Errorf("Injected() = %d, want 0", st.Injected())
	}
}
