package compiler

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/levels"
	"repro/internal/mem"
	"repro/internal/mesi"
	"repro/internal/topo"
)

// hierFor builds the inter-block machine hierarchy for a mode.
func hierFor(mode Mode) engine.Hierarchy {
	m := topo.NewInterBlock()
	if mode == ModeHCC {
		return mesi.New(m, levels.DefaultConfig(m))
	}
	return core.New(m, core.Config{Config: levels.DefaultConfig(m)})
}

// pipeline is a simple two-stage producer-consumer program: loop P writes
// X chunked, loop C reads X shifted by one chunk, so every thread consumes
// from its neighbor.
func pipeline(n, shift int) *Program {
	prog := NewProgram("pipeline")
	prog.Array("X", n)
	prog.Array("Y", n)
	prog.Add(
		&Loop{
			Name: "produce", Parallel: true, Lo: 0, Hi: n,
			Writes: []Write{{Array: "X", At: func(i int) int { return i }}},
			Body: func(i int, _ func(int) mem.Word) []mem.Word {
				return []mem.Word{mem.Word(i * 3)}
			},
		},
		&Loop{
			Name: "consume", Parallel: true, Lo: 0, Hi: n,
			Reads:  []Read{{Array: "X", At: func(i int) int { return (i + shift) % n }}},
			Writes: []Write{{Array: "Y", At: func(i int) int { return i }}},
			Body: func(i int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0) + 1}
			},
		},
	)
	return prog
}

func TestReferenceInterpreter(t *testing.T) {
	prog := pipeline(64, 8)
	ref := Reference(prog)
	if ref["X"][5] != 15 {
		t.Errorf("X[5] = %d", ref["X"][5])
	}
	if ref["Y"][0] != ref["X"][8]+1 {
		t.Errorf("Y[0] = %d", ref["Y"][0])
	}
}

func TestAnalyzeFindsProducerConsumerPairs(t *testing.T) {
	prog := pipeline(64, 2) // chunk = 2 with 32 threads: neighbor exchange
	plan := Analyze(prog, 32)
	consume := prog.Stmts[1].(*Loop)
	produce := prog.Stmts[0].(*Loop)
	invs, wbs := 0, 0
	for u := 0; u < 32; u++ {
		invs += len(plan.Loops[consume].INVIn[u])
		wbs += len(plan.Loops[produce].WBOut[u])
	}
	if invs == 0 {
		t.Error("no INV_PROD annotations for the consumer")
	}
	if wbs == 0 {
		t.Error("no WB_CONS annotations for the producer")
	}
	// With shift=2 and chunk=2, each thread reads exactly its successor's
	// chunk: one INV annotation per thread, naming the successor.
	for u := 0; u < 32; u++ {
		anns := plan.Loops[consume].INVIn[u]
		if len(anns) != 1 {
			t.Fatalf("thread %d has %d INV annotations, want 1 (%v)", u, len(anns), anns)
		}
		wantPeer := (u + 1) % 32
		if anns[0].Peer != wantPeer || anns[0].Multi {
			t.Errorf("thread %d INV peer = %d (multi=%v), want %d", u, anns[0].Peer, anns[0].Multi, wantPeer)
		}
	}
}

func TestAnalyzeSelfChunkNoCommunication(t *testing.T) {
	prog := pipeline(64, 0) // shift 0: every thread reads its own chunk
	plan := Analyze(prog, 32)
	consume := prog.Stmts[1].(*Loop)
	for u := 0; u < 32; u++ {
		if len(plan.Loops[consume].INVIn[u]) != 0 {
			t.Fatalf("thread %d has annotations for a thread-local read", u)
		}
	}
}

func TestPipelineCorrectUnderAllModes(t *testing.T) {
	for _, mode := range Modes {
		w := &IRWorkload{Name: "pipeline", Prog: pipeline(64, 8), Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// reduceProg sums i over a reduction, then a serial loop reads the total.
func reduceProg(n int) *Program {
	prog := NewProgram("reduce")
	prog.Array("acc", 4)
	prog.Array("out", 4)
	prog.Add(
		&Loop{
			Name: "reduce", Parallel: true, Lo: 0, Hi: n,
			Reduction: &Reduction{Array: "acc", At: func(i int) int { return i % 4 }},
			Body: func(i int, _ func(int) mem.Word) []mem.Word {
				return []mem.Word{mem.Word(i)}
			},
		},
		&Loop{
			Name: "report", Parallel: false, Lo: 0, Hi: 4,
			Reads:  []Read{{Array: "acc", At: func(j int) int { return j }}},
			Writes: []Write{{Array: "out", At: func(j int) int { return j }}},
			Body: func(j int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0) * 2}
			},
		},
	)
	return prog
}

func TestReductionCorrectUnderAllModes(t *testing.T) {
	for _, mode := range Modes {
		w := &IRWorkload{Name: "reduce", Prog: reduceProg(256), Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestReductionHasNoAdaptiveAnnotations(t *testing.T) {
	prog := reduceProg(256)
	plan := Analyze(prog, 32)
	reduce := prog.Stmts[0].(*Loop)
	report := prog.Stmts[1].(*Loop)
	for u := 0; u < 32; u++ {
		for _, ann := range plan.Loops[reduce].WBOut[u] {
			if !ann.Multi {
				t.Error("reduction producer got a level-adaptive WB annotation")
			}
		}
	}
	// The serial consumer's invalidations are conservative (Multi).
	found := false
	for _, ann := range plan.Loops[report].INVIn[0] {
		if !ann.Multi {
			t.Errorf("reduction consumer annotation is not conservative: %+v", ann)
		}
		found = true
	}
	if !found {
		t.Error("reduction consumer has no fallback INV")
	}
}

// indirectProg: gather through an index array (exercises the inspector).
func indirectProg(n int) *Program {
	prog := NewProgram("gather")
	prog.Array("idx", n)
	prog.Array("src", n)
	prog.Array("dst", n)
	perm := func(i int) int { return (i*7 + 3) % n }
	prog.Add(
		&Loop{
			Name: "init-idx", Parallel: true, Lo: 0, Hi: n,
			Writes: []Write{{Array: "idx", At: func(i int) int { return i }}},
			Body: func(i int, _ func(int) mem.Word) []mem.Word {
				return []mem.Word{mem.Word(perm(i))}
			},
		},
		&Loop{
			Name: "init-src", Parallel: true, Lo: 0, Hi: n,
			Writes: []Write{{Array: "src", At: func(i int) int { return i }}},
			Body: func(i int, _ func(int) mem.Word) []mem.Word {
				return []mem.Word{mem.Word(i * 11)}
			},
		},
		&Loop{
			Name: "gather", Parallel: true, Lo: 0, Hi: n,
			Reads: []Read{{
				Array: "src", At: perm,
				Indirect: true, IndexArray: "idx", IndexAt: func(i int) int { return i },
			}},
			Writes: []Write{{Array: "dst", At: func(i int) int { return i }}},
			Body: func(i int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0) + 5}
			},
		},
	)
	return prog
}

func TestInspectorGatherCorrectUnderAllModes(t *testing.T) {
	for _, mode := range Modes {
		w := &IRWorkload{Name: "gather", Prog: indirectProg(128), Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestInspectorPlanned(t *testing.T) {
	prog := indirectProg(128)
	plan := Analyze(prog, 32)
	gather := prog.Stmts[2].(*Loop)
	if len(plan.Loops[gather].Inspectors) != 1 {
		t.Fatalf("inspectors = %d, want 1", len(plan.Loops[gather].Inspectors))
	}
	owner := plan.Loops[gather].Inspectors[0].OwnerOf
	// Element 0 of src is produced by thread 0 under chunking of 128/32.
	if got := owner(0); got != 0 {
		t.Errorf("owner(0) = %d", got)
	}
	if got := owner(127); got != 31 {
		t.Errorf("owner(127) = %d", got)
	}
}

func TestTimeLoopCrossIterationPairs(t *testing.T) {
	// A ping-pong program where the copy loop's output feeds the next
	// iteration's stencil: annotations must exist via the back edge.
	n := 64
	prog := NewProgram("ping")
	prog.Array("A", n)
	prog.Array("B", n)
	prog.Add(&Loop{
		Name: "init", Parallel: true, Lo: 0, Hi: n,
		Writes: []Write{{Array: "A", At: func(i int) int { return i }}},
		Body:   func(i int, _ func(int) mem.Word) []mem.Word { return []mem.Word{mem.Word(i)} },
	})
	prog.Add(&TimeLoop{Iters: 3, Body: []Stmt{
		&Loop{
			Name: "shift", Parallel: true, Lo: 0, Hi: n,
			Reads:  []Read{{Array: "A", At: func(i int) int { return (i + 1) % n }}},
			Writes: []Write{{Array: "B", At: func(i int) int { return i }}},
			Body: func(i int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0) + 1}
			},
		},
		&Loop{
			Name: "copy", Parallel: true, Lo: 0, Hi: n,
			Reads:  []Read{{Array: "B", At: func(i int) int { return i }}},
			Writes: []Write{{Array: "A", At: func(i int) int { return i }}},
			Body: func(i int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0)}
			},
		},
	}})
	plan := Analyze(prog, 32)
	shift := (prog.Stmts[1].(*TimeLoop)).Body[0].(*Loop)
	anyINV := false
	for u := 0; u < 32; u++ {
		if len(plan.Loops[shift].INVIn[u]) > 0 {
			anyINV = true
		}
	}
	if !anyINV {
		t.Fatal("no cross-iteration annotations found")
	}
	for _, mode := range Modes {
		w := &IRWorkload{Name: "ping", Prog: prog, Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ModeHCC.String() != "HCC" || ModeAddrL.String() != "Addr+L" {
		t.Error("mode names wrong")
	}
}

func TestAddrLReducesGlobalOpsOnNeighborExchange(t *testing.T) {
	// Figure 11's mechanism in miniature: neighbor exchange where most
	// neighbors share a block must produce fewer global ops under Addr+L
	// than under Addr.
	runMode := func(mode Mode) (int64, int64) {
		h := hierFor(mode).(*core.Hierarchy)
		w := &IRWorkload{Name: "pipeline", Prog: pipeline(64, 2), Threads: 32}
		if _, err := w.Run(h, mode); err != nil {
			t.Fatal(err)
		}
		wb, inv := h.GlobalOps()
		return wb, inv
	}
	wbAddr, invAddr := runMode(ModeAddr)
	wbAdpt, invAdpt := runMode(ModeAddrL)
	if wbAdpt >= wbAddr {
		t.Errorf("global WBs: Addr+L %d not below Addr %d", wbAdpt, wbAddr)
	}
	if invAdpt >= invAddr {
		t.Errorf("global INVs: Addr+L %d not below Addr %d", invAdpt, invAddr)
	}
}

// A range read by three or more consumer threads collapses to a single
// conservative global writeback (the broadcast case), while two consumers
// get one WB_CONS each.
func TestBroadcastWBCollapse(t *testing.T) {
	n := 64
	mk := func(readers int) *Program {
		prog := NewProgram("bcast")
		prog.Array("X", n)
		prog.Array("Y", n)
		prog.Add(
			&Loop{
				Name: "produce", Parallel: false, Lo: 0, Hi: 1,
				Writes: []Write{{Array: "X", At: func(int) int { return 0 }}},
				Body: func(int, func(int) mem.Word) []mem.Word {
					return []mem.Word{7}
				},
			},
			&Loop{
				Name: "consume", Parallel: true, Lo: 0, Hi: readers,
				Reads:  []Read{{Array: "X", At: func(int) int { return 0 }}},
				Writes: []Write{{Array: "Y", At: func(i int) int { return i }}},
				Body: func(_ int, read func(int) mem.Word) []mem.Word {
					return []mem.Word{read(0) + 1}
				},
			},
		)
		return prog
	}
	// Two readers (threads 0 and 1; thread 0 produces, so one cross-thread
	// consumer): per-consumer WB_CONS annotations, none Multi.
	plan := Analyze(mk(2), 32)
	produce := plan.flat[0].loop
	for _, ann := range plan.Loops[produce].WBOut[0] {
		if ann.Multi {
			t.Errorf("two-consumer range should not collapse: %+v", ann)
		}
	}
	// Many readers: chunking of 32 threads over 8 iterations gives 8
	// distinct consumer threads reading X[0] — must collapse to Multi.
	plan = Analyze(mk(8), 32)
	produce = plan.flat[0].loop
	foundMulti := false
	perPeer := 0
	for _, ann := range plan.Loops[produce].WBOut[0] {
		if ann.Multi {
			foundMulti = true
		} else {
			perPeer++
		}
	}
	if !foundMulti {
		t.Error("broadcast range did not collapse to a global WB")
	}
	if perPeer > 2 {
		t.Errorf("%d per-consumer annotations survived the collapse", perPeer)
	}
	// And the program still verifies under every mode.
	for _, mode := range Modes {
		w := &IRWorkload{Name: "bcast", Prog: mk(8), Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

// Loops with empty chunks (more threads than iterations) analyze and run.
func TestEmptyChunksHandled(t *testing.T) {
	prog := NewProgram("tiny")
	prog.Array("X", 4)
	prog.Array("Y", 4)
	prog.Add(
		&Loop{
			Name: "p", Parallel: true, Lo: 0, Hi: 4,
			Writes: []Write{{Array: "X", At: func(i int) int { return i }}},
			Body: func(i int, _ func(int) mem.Word) []mem.Word {
				return []mem.Word{mem.Word(i * 3)}
			},
		},
		&Loop{
			Name: "c", Parallel: true, Lo: 0, Hi: 4,
			Reads:  []Read{{Array: "X", At: func(i int) int { return 3 - i }}},
			Writes: []Write{{Array: "Y", At: func(i int) int { return i }}},
			Body: func(_ int, read func(int) mem.Word) []mem.Word {
				return []mem.Word{read(0)}
			},
		},
	)
	for _, mode := range Modes {
		w := &IRWorkload{Name: "tiny", Prog: prog, Threads: 32}
		if _, err := w.Run(hierFor(mode), mode); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
