package isa

import (
	"testing"

	"repro/internal/mem"
)

func TestOpFamilies(t *testing.T) {
	wantINV := map[OpKind]bool{OpINV: true, OpINVAll: true, OpInvProd: true, OpInvProdAll: true, OpINVSig: true}
	for k := OpKind(0); k < NumOpKinds; k++ {
		if got := k.IsINVFamily(); got != wantINV[k] {
			t.Errorf("%v.IsINVFamily() = %v, want %v", k, got, wantINV[k])
		}
	}
}

func TestFootprint(t *testing.T) {
	rng := mem.Range{Base: 0x100, Bytes: 32}
	tests := []struct {
		op   Op
		want mem.Range
		ok   bool
	}{
		{Op{Kind: OpLoad, Addr: 0x204}, mem.WordRange(0x204, 1), true},
		{Op{Kind: OpStore, Addr: 0x208, Value: 3}, mem.WordRange(0x208, 1), true},
		{Op{Kind: OpLoadU, Addr: 0x20c}, mem.WordRange(0x20c, 1), true},
		{Op{Kind: OpStoreU, Addr: 0x210}, mem.WordRange(0x210, 1), true},
		{Op{Kind: OpWB, Range: rng}, rng, true},
		{Op{Kind: OpINV, Range: rng}, rng, true},
		{Op{Kind: OpWBCons, Range: rng, Peer: 2}, rng, true},
		{Op{Kind: OpInvProd, Range: rng, Peer: 2}, rng, true},
		{Op{Kind: OpWBAll}, mem.Range{}, false},
		{Op{Kind: OpINVAll, Lazy: true}, mem.Range{}, false},
		{Op{Kind: OpCompute, Cycles: 5}, mem.Range{}, false},
		{Op{Kind: OpAcquire, ID: 1}, mem.Range{}, false},
		{Op{Kind: OpDMACopy, Addr: 0x400, Range: rng, Peer: 1}, mem.Range{}, false},
		{Op{Kind: OpSigPublish, ID: 3}, mem.Range{}, false},
	}
	for _, tc := range tests {
		got, ok := tc.op.Footprint()
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("(%v).Footprint() = %v,%v, want %v,%v", tc.op, got, ok, tc.want, tc.ok)
		}
	}
}

func TestLineSpanWidening(t *testing.T) {
	// A 4-byte range at the end of one line must conflict with a range at
	// the start of the same line even though the byte ranges are disjoint.
	tail := Op{Kind: OpStore, Addr: 0x13c}
	head := Op{Kind: OpLoad, Addr: 0x100}
	if (Deps{}).Independent(tail, head) {
		t.Error("ops on the same 64-byte line reported independent")
	}
	// But the first word of the next line is independent.
	next := Op{Kind: OpLoad, Addr: 0x140}
	if !(Deps{}).Independent(tail, next) {
		t.Error("ops on adjacent lines reported dependent")
	}
}
