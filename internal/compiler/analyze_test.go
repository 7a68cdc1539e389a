package compiler_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/apps/jacobi"
	"repro/internal/apps/nas"
	"repro/internal/compiler"
)

// planCase is one (scale, workload, threads) compilation.
type planCase struct {
	scale string
	wl    *compiler.IRWorkload
}

// planCases covers the inter-block sweep's four applications at 32 threads
// and the many-core sweep's two at 8 to 1024 threads, at both problem
// sizes: every plan the shipped experiments build.
func planCases() []planCase {
	var cases []planCase
	for _, scale := range []struct {
		name string
		nas  nas.Size
		jac  jacobi.Size
	}{{"test", nas.Test, jacobi.Test}, {"bench", nas.Bench, jacobi.Bench}} {
		for _, wl := range []*compiler.IRWorkload{
			nas.EP(scale.nas, 32), nas.IS(scale.nas, 32), nas.CG(scale.nas, 32), jacobi.New(scale.jac, 32),
		} {
			cases = append(cases, planCase{scale.name, wl})
		}
		for threads := 8; threads <= 1024; threads *= 2 {
			cases = append(cases,
				planCase{scale.name, jacobi.New(scale.jac, threads)},
				planCase{scale.name, nas.EP(scale.nas, threads)})
		}
	}
	return cases
}

// hashPlan writes a canonical rendering of plan into h: per loop in
// program order and per thread, every WB and INV annotation, then each
// inspector's owner function over the whole read array.
func hashPlan(h hash.Hash, prog *compiler.Program, plan *compiler.Plan) {
	var walk func(stmts []compiler.Stmt)
	walk = func(stmts []compiler.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *compiler.TimeLoop:
				fmt.Fprintf(h, "time %d\n", s.Iters)
				walk(s.Body)
			case *compiler.Loop:
				lp := plan.Loops[s]
				fmt.Fprintf(h, "loop %s\n", s.Name)
				for t := 0; t < plan.Threads; t++ {
					for _, a := range lp.WBOut[t] {
						fmt.Fprintf(h, "wb %d %v %d %v\n", t, a.Ranges, a.Peer, a.Multi)
					}
					for _, a := range lp.INVIn[t] {
						fmt.Fprintf(h, "inv %d %v %d %v\n", t, a.Ranges, a.Peer, a.Multi)
					}
				}
				for _, insp := range lp.Inspectors {
					fmt.Fprintf(h, "inspect %d:", insp.ReadIdx)
					for e := 0; e < prog.Arrays[s.Reads[insp.ReadIdx].Array].Len; e++ {
						fmt.Fprintf(h, " %d", insp.OwnerOf(e))
					}
					fmt.Fprintln(h)
				}
			}
		}
	}
	walk(prog.Stmts)
}

// planDigest is the SHA-256 of every case's plan rendering. It was pinned
// before the analysis was reworked for speed; any change to a WB/INV
// placement, its order, or an inspector's owner map changes it.
const planDigest = "17548d4186167f0b8820b5d8ebc3c62c2d9d9eca67c50e7716d4cf8520273915"

func TestPlanDigestPinned(t *testing.T) {
	h := sha256.New()
	for _, c := range planCases() {
		fmt.Fprintf(h, "case %s %s %d\n", c.scale, c.wl.Name, c.wl.Threads)
		hashPlan(h, c.wl.Prog, compiler.Analyze(c.wl.Prog, c.wl.Threads))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != planDigest {
		t.Errorf("plan digest = %s, want %s", got, planDigest)
	}
}

// TestAnalyzeAllocs guards against a superlinear analysis coming back:
// the 1024-thread Jacobi plan once cost 11.3 M allocations per call when
// every write-back list was re-sorted on every insertion.
func TestAnalyzeAllocs(t *testing.T) {
	wl := jacobi.New(jacobi.Bench, 1024)
	allocs := testing.AllocsPerRun(1, func() { compiler.Analyze(wl.Prog, wl.Threads) })
	if allocs > 250_000 {
		t.Errorf("Analyze(jacobi bench, 1024 threads) = %.0f allocs, want <= 250000", allocs)
	}
}

// planSink keeps the benchmarked plans live.
var planSink *compiler.Plan

// BenchmarkAnalyze times plan construction alone: bench-size Jacobi at
// the many-core sweep's thread counts, and IS at the inter-block sweep's
// 32 threads (reductions plus a serial scan).
func BenchmarkAnalyze(b *testing.B) {
	cases := []*compiler.IRWorkload{
		jacobi.New(jacobi.Bench, 64),
		jacobi.New(jacobi.Bench, 256),
		jacobi.New(jacobi.Bench, 1024),
		nas.IS(nas.Bench, 32),
	}
	for _, wl := range cases {
		b.Run(fmt.Sprintf("%s/threads-%d", wl.Name, wl.Threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				planSink = compiler.Analyze(wl.Prog, wl.Threads)
			}
		})
	}
}
