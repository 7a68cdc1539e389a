package hic_test

import (
	"fmt"

	hic "repro"
	"repro/internal/mem"
)

// The minimal incoherent-hierarchy program: a producer exports a value
// with WB, the threads synchronize through the controller, and the
// consumer self-invalidates before reading (Section III-A's sequence).
// The consumer caches the line before the handoff; without the WB/INV
// pair it keeps reading that stale copy, because the hardware really is
// incoherent.
func Example() {
	exchange := func(annotated bool) mem.Word {
		h := hic.NewHierarchy(hic.NewIntraMachine(), hic.Base)
		var got mem.Word
		guests := make([]hic.Guest, 16)
		guests[0] = func(p hic.Proc) {
			p.Store(0x1000, 42)
			if annotated {
				p.WB(mem.WordRange(0x1000, 1))
			}
			p.FlagSet(0, 1)
		}
		guests[1] = func(p hic.Proc) {
			p.Load(0x1000) // cache a copy before the handoff
			p.FlagWait(0, 1)
			if annotated {
				p.INV(mem.WordRange(0x1000, 1))
			}
			got = p.Load(0x1000)
		}
		for i := 2; i < 16; i++ {
			guests[i] = func(hic.Proc) {}
		}
		if _, err := hic.Run(h, guests); err != nil {
			panic(err)
		}
		return got
	}
	fmt.Println("with WB+INV:", exchange(true))
	fmt.Println("without:", exchange(false))
	// Output:
	// with WB+INV: 42
	// without: 0
}

// Programming Model 1: the annotator inserts the WB/INV instructions that
// each Table II configuration requires, so the application is written
// once against ordinary synchronization.
func ExampleWrapAnnotated() {
	app := func(p *hic.AnnotatedProc) {
		p.CSEnter(1)
		v := p.Load(0x2000)
		p.Store(0x2000, v+1)
		p.CSExit(1)
		p.BarrierSync(0)
	}
	h := hic.NewHierarchy(hic.NewIntraMachine(), hic.BMI)
	guests := hic.AnnotatedGuests(16, hic.BMI, hic.Pattern{}, app)
	if _, err := hic.Run(h, guests); err != nil {
		panic(err)
	}
	h.Drain()
	fmt.Println(h.Memory().ReadWord(0x2000))
	// Output: 16
}

// The Section VII-A storage comparison reproduces the paper's ~102 KB
// saving.
func ExampleStorageReport() {
	r := hic.StorageReport()
	fmt.Printf("%.0f KB saved\n", r.Savings().KB())
	// Output: 101 KB saved
}
