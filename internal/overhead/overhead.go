// Package overhead implements the control/storage comparison of Section
// VII-A: the storage the hardware-coherent hierarchy spends on directories
// and coherence-state bits versus the storage the hardware-incoherent
// hierarchy spends on the MEB/IEB buffers and per-word dirty bits. For the
// paper's 4-block × 8-core machine the model reproduces the reported
// "about 102 KB" saving.
package overhead

import (
	"fmt"
	"strings"

	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/topo"
)

// Params describes one machine for the storage model.
type Params struct {
	Blocks        int
	CoresPerBlock int
	L1Bytes       int // per core
	L2Bytes       int // per block
	L3Bytes       int // total
	MEBEntries    int
	IEBEntries    int
	// AddrBits is the physical address width used to size IEB entries
	// (Table III: 40-bit line addresses).
	AddrBits int
	// MESIStateBits encodes stable + transient states per L1/L2 line
	// (Section VII-A assumes 4).
	MESIStateBits int
}

// PaperMachine returns the Section VII-A machine: the Table III
// inter-block machine (4 blocks × 8 cores) with its cache sizes.
func PaperMachine() Params {
	m := topo.NewInterBlock()
	c := levels.DefaultConfig(m)
	return Params{
		Blocks:        m.Blocks,
		CoresPerBlock: m.CoresPerBlock,
		L1Bytes:       c.L1.Bytes,
		L2Bytes:       c.L2.Bytes,
		L3Bytes:       c.L3.Bytes,
		MEBEntries:    16,
		IEBEntries:    4,
		AddrBits:      40,
		MESIStateBits: 4,
	}
}

// Bits is a storage quantity in bits.
type Bits int64

// KB returns the quantity in kilobytes.
func (b Bits) KB() float64 { return float64(b) / 8 / 1024 }

// Item is one storage structure in the comparison, in the report and
// in its JSON document alike.
type Item struct {
	Name string `json:"name"`
	Bits Bits   `json:"bits"`
}

// Report is the full comparison.
type Report struct {
	Coherent, Incoherent []Item
}

// CoherentTotal sums the coherent hierarchy's structures.
func (r *Report) CoherentTotal() Bits { return total(r.Coherent) }

// IncoherentTotal sums the incoherent hierarchy's structures.
func (r *Report) IncoherentTotal() Bits { return total(r.Incoherent) }

// Savings returns coherent minus incoherent storage.
func (r *Report) Savings() Bits { return r.CoherentTotal() - r.IncoherentTotal() }

func total(items []Item) Bits {
	var t Bits
	for _, it := range items {
		t += it.Bits
	}
	return t
}

// Compute builds the storage comparison for machine p.
func Compute(p Params) *Report {
	cores := p.Blocks * p.CoresPerBlock
	l1Lines := int64(p.L1Bytes / mem.LineBytes)
	l2Lines := int64(p.L2Bytes / mem.LineBytes)
	l3Lines := int64(p.L3Bytes / mem.LineBytes)
	mebEntryBits := int64(ceilLog2(l1Lines)) + 1 // line frame ID + valid
	iebEntryBits := int64(p.AddrBits) + 1        // line address + valid

	r := &Report{}
	// Coherent: hierarchical full-map directory (per-block presence at
	// L3, per-core presence at L2, each with a dirty bit) plus MESI state
	// bits in every L1 and L2 line.
	r.Coherent = []Item{
		{"L3 directory (presence per block + dirty)", Bits(l3Lines * int64(p.Blocks+1))},
		{"L2 directories (presence per core + dirty)", Bits(int64(p.Blocks) * l2Lines * int64(p.CoresPerBlock+1))},
		{"L1 MESI state bits", Bits(int64(cores) * l1Lines * int64(p.MESIStateBits))},
		{"L2 MESI state bits", Bits(int64(p.Blocks) * l2Lines * int64(p.MESIStateBits))},
	}
	// Incoherent: per-core MEB and IEB plus a valid bit and per-word
	// dirty bits in every L1 and L2 line. The per-L2 ThreadMap table is
	// negligible (one block ID per thread) but counted for completeness.
	threadMapBits := int64(p.Blocks) * int64(cores) * int64(ceilLog2(int64(p.Blocks)))
	r.Incoherent = []Item{
		{"MEB (per core)", Bits(int64(cores) * int64(p.MEBEntries) * mebEntryBits)},
		{"IEB (per core)", Bits(int64(cores) * int64(p.IEBEntries) * iebEntryBits)},
		{"L1 valid + per-word dirty bits", Bits(int64(cores) * l1Lines * int64(1+mem.WordsPerLine))},
		{"L2 valid + per-word dirty bits", Bits(int64(p.Blocks) * l2Lines * int64(1+mem.WordsPerLine))},
		{"ThreadMap tables", Bits(threadMapBits)},
	}
	return r
}

func ceilLog2(n int64) int {
	b := 0
	for v := int64(1); v < n; v <<= 1 {
		b++
	}
	return b
}

// Render prints the comparison as a table.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString("Section VII-A storage comparison\n\n")
	section := func(title string, items []Item, tot Bits) {
		fmt.Fprintf(&b, "%s\n", title)
		for _, it := range items {
			fmt.Fprintf(&b, "  %-44s %10.2f KB\n", it.Name, it.Bits.KB())
		}
		fmt.Fprintf(&b, "  %-44s %10.2f KB\n\n", "total", tot.KB())
	}
	section("Hardware-coherent hierarchy:", r.Coherent, r.CoherentTotal())
	section("Hardware-incoherent hierarchy:", r.Incoherent, r.IncoherentTotal())
	fmt.Fprintf(&b, "Incoherent saves %.2f KB (paper: about 102 KB)\n", r.Savings().KB())
	return b.String()
}
