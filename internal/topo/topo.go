// Package topo describes the physical organization of the simulated
// machine: how many blocks and cores it has, where each core tile, L2 bank,
// L3 bank, and memory port sits on the 2D mesh, and the Table III latency
// parameters. Both the hardware-coherent (mesi) and hardware-incoherent
// (core) hierarchies are built on the same topology so their timing and
// traffic are directly comparable.
package topo

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/noc"
)

// Node ID layout on the mesh: cores occupy [0, NumCores); L3 banks and
// memory ports get high IDs placed at mesh corners.
const (
	l3NodeBase  = 1 << 16
	memNodeBase = 1 << 17
)

// Params are the timing parameters of Table III plus the cost-model knobs
// this reproduction adds (documented in DESIGN.md §3).
type Params struct {
	// L1RT, L2RT, L3RT are round-trip access times of the caches (cycles),
	// excluding network hops. MemRT is the off-chip memory round trip.
	L1RT, L2RT, L3RT, MemRT int64
	// ScanPerFrame is the cost of probing one tag (range WB/INV line
	// probes, MEB entry scans).
	ScanPerFrame int64
	// TraversalPerFrame is the per-frame cost of a whole-cache WB ALL
	// traversal. Scaled-capacity experiment machines raise it so the
	// absolute traversal cost stays representative of the full Table III
	// tag array.
	TraversalPerFrame int64
	// WBOccupancy is the per-line issue occupancy of a writeback burst;
	// bursts are pipelined, so k lines cost k×WBOccupancy plus one drain
	// round trip.
	WBOccupancy int64
	// FlashCost is the cost of flash-clearing the valid bits on INV ALL.
	FlashCost int64
	// SyncService is the synchronization controller service time per
	// request, on top of the mesh round trip.
	SyncService int64
	// CPI approximates the pipelined cost of issuing one memory
	// instruction that hits in the L1 (the 4-issue core's throughput
	// limit); pure Compute ops charge their cycle count directly.
	CPI int64
}

// DefaultParams returns the Table III timing parameters.
func DefaultParams() Params {
	return Params{
		L1RT:              2,
		L2RT:              11,
		L3RT:              20,
		MemRT:             150,
		ScanPerFrame:      1,
		TraversalPerFrame: 1,
		WBOccupancy:       4,
		FlashCost:         8,
		SyncService:       11,
		CPI:               1,
	}
}

// Machine is the static machine layout.
type Machine struct {
	Blocks        int
	CoresPerBlock int
	L3Banks       int // 0 for the single-block machine (L2 is last level)
	MemPorts      int
	Mesh          *noc.Mesh
	Params        Params

	blockW, blockH int // tile dims of one block
	meshW, meshH   int
}

// NumCores returns the total core count.
func (m *Machine) NumCores() int { return m.Blocks * m.CoresPerBlock }

// NewIntraBlock builds the Table III intra-block machine: one block of 16
// cores on a 4×4 mesh, one L2 bank per core tile, no L3, memory at the four
// corners.
func NewIntraBlock() *Machine {
	return build(1, 16, 0, DefaultParams())
}

// NewInterBlock builds the Table III inter-block machine: 4 blocks of 8
// cores on an 8×4 mesh (each block a 4×2 quadrant), one L2 bank per core
// tile, 4 L3 banks at the corners, memory at the corners.
func NewInterBlock() *Machine {
	return build(4, 8, 4, DefaultParams())
}

// NewCustom builds a machine with the given shape; blocks×coresPerBlock
// must be expressible as a mesh of 2^k columns (manycore, litmus).
func NewCustom(blocks, coresPerBlock, l3Banks int, p Params) *Machine {
	return build(blocks, coresPerBlock, l3Banks, p)
}

func build(blocks, coresPerBlock, l3Banks int, p Params) *Machine {
	total := blocks * coresPerBlock
	w, h := meshDims(total)
	m := &Machine{
		Blocks:        blocks,
		CoresPerBlock: coresPerBlock,
		L3Banks:       l3Banks,
		MemPorts:      4,
		Mesh:          noc.New(w, h),
		Params:        p,
		meshW:         w,
		meshH:         h,
	}
	// Blocks tile the mesh left-to-right, top-to-bottom. Each block is a
	// bw×bh rectangle of core tiles.
	bw, bh := blockDims(coresPerBlock, w, h, blocks)
	m.blockW, m.blockH = bw, bh
	blocksPerRow := w / bw
	for c := 0; c < total; c++ {
		b := c / coresPerBlock
		i := c % coresPerBlock
		bx, by := (b%blocksPerRow)*bw, (b/blocksPerRow)*bh
		m.Mesh.Place(noc.NodeID(c), noc.Coord{X: bx + i%bw, Y: by + i/bw})
	}
	corners := m.Mesh.Corners()
	for b := 0; b < l3Banks; b++ {
		m.Mesh.Place(noc.NodeID(l3NodeBase+b), corners[b%4])
	}
	for p := 0; p < m.MemPorts; p++ {
		m.Mesh.Place(noc.NodeID(memNodeBase+p), corners[p%4])
	}
	return m
}

func meshDims(total int) (w, h int) {
	// Pick the most square power-of-two-ish factorization.
	bestW, bestH := total, 1
	for h := 1; h <= total; h++ {
		if total%h != 0 {
			continue
		}
		w := total / h
		if abs(w-h) < abs(bestW-bestH) {
			bestW, bestH = w, h
		}
	}
	if bestW < bestH {
		bestW, bestH = bestH, bestW
	}
	return bestW, bestH
}

func blockDims(coresPerBlock, w, h, blocks int) (bw, bh int) {
	// Find a rectangle of coresPerBlock tiles that tiles the w×h mesh into
	// exactly `blocks` rectangles.
	for bh = 1; bh <= h; bh++ {
		if coresPerBlock%bh != 0 {
			continue
		}
		bw = coresPerBlock / bh
		if bw <= w && w%bw == 0 && h%bh == 0 && (w/bw)*(h/bh) == blocks {
			return bw, bh
		}
	}
	panic(fmt.Sprintf("topo: cannot tile %d cores/block into %dx%d mesh with %d blocks",
		coresPerBlock, w, h, blocks))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BlockOf returns the block holding core c (threads map 1:1 to cores and do
// not migrate, per Section IV-A).
func (m *Machine) BlockOf(core int) int { return core / m.CoresPerBlock }

// CoreNode returns the mesh node of core c's tile.
func (m *Machine) CoreNode(core int) noc.NodeID { return noc.NodeID(core) }

// L2BankOf returns, for a block, which of its core tiles hosts the L2 bank
// serving the given line (line-interleaved across the block's banks).
func (m *Machine) L2BankOf(line mem.Addr) int {
	return int(line/mem.LineBytes) % m.CoresPerBlock
}

// L2BankNode returns the mesh node of the L2 bank serving line in block b.
func (m *Machine) L2BankNode(b int, line mem.Addr) noc.NodeID {
	return noc.NodeID(b*m.CoresPerBlock + m.L2BankOf(line))
}

// L3BankOf returns the L3 bank index serving line.
func (m *Machine) L3BankOf(line mem.Addr) int {
	if m.L3Banks == 0 {
		return 0
	}
	return int(line/mem.LineBytes) % m.L3Banks
}

// L3Node returns the mesh node of the L3 bank serving line.
func (m *Machine) L3Node(line mem.Addr) noc.NodeID {
	return noc.NodeID(l3NodeBase + m.L3BankOf(line))
}

// MemNode returns the mesh node of the memory port serving line.
func (m *Machine) MemNode(line mem.Addr) noc.NodeID {
	return noc.NodeID(memNodeBase + int(line/mem.LineBytes)%m.MemPorts)
}

// SyncNode returns the mesh node of the shared-cache controller entry
// serving synchronization variable id (interleaved across the machine's
// shared-cache banks: L3 banks when present, else the block's L2 banks).
func (m *Machine) SyncNode(id int) noc.NodeID {
	if m.L3Banks > 0 {
		return noc.NodeID(l3NodeBase + id%m.L3Banks)
	}
	return noc.NodeID(id % m.NumCores())
}

// SyncCost returns the round trip for core's synchronization request on
// variable id: mesh round trip plus controller service time.
func (m *Machine) SyncCost(core, id int) int64 {
	return m.Mesh.RTLatency(m.CoreNode(core), m.SyncNode(id)) + m.Params.SyncService
}
