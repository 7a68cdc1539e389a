package compiler

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/mem"
	"repro/internal/workload"
)

// flatLoop is one loop occurrence in the flattened interprocedural control
// flow: its position in program order and whether it sits inside a time
// loop (whose back edge makes every loop in the region reach every other).
type flatLoop struct {
	loop   *Loop
	index  int
	region int // -1 outside any TimeLoop, else TimeLoop ordinal
}

// flatten linearizes the statement list.
func flatten(stmts []Stmt, region int, nextRegion *int, out *[]flatLoop) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Loop:
			*out = append(*out, flatLoop{loop: s, index: len(*out), region: region})
		case *TimeLoop:
			r := *nextRegion
			*nextRegion++
			flatten(s.Body, r, nextRegion, out)
		default:
			panic(fmt.Sprintf("compiler: unknown statement %T", s))
		}
	}
}

// Annotation is one WB or INV insertion: a set of element ranges plus the
// peer thread for the level-adaptive instruction form. Multi marks pieces
// with more than one peer (or no identifiable peer, as after reductions),
// which lower to the conservative global instructions.
type Annotation struct {
	Ranges []mem.Range
	Peer   int
	Multi  bool
}

// InspectorPlan describes one irregular read requiring a runtime
// inspector: for each consumer iteration the lowered code computes the
// producing thread of the element it reads (from the producer's static
// schedule) and issues a conditional INV before the read.
type InspectorPlan struct {
	ReadIdx int
	// OwnerOf maps an element of the read array to the thread that
	// produces it (derived from the producer loop's chunk distribution).
	OwnerOf func(elem int) int
}

// LoopPlan is the instrumentation computed for one loop.
type LoopPlan struct {
	// WBOut[t] are the writebacks thread t issues at the loop's epoch
	// end; INVIn[t] are the invalidations it issues at epoch start.
	WBOut, INVIn [][]Annotation
	// Inspectors are the loop's irregular reads.
	Inspectors []InspectorPlan
}

// Plan is the full compilation result.
type Plan struct {
	Prog    *Program
	Threads int
	Loops   map[*Loop]*LoopPlan
	flat    []flatLoop
}

// chunkOwner returns the owner of iteration i of loop l.
func chunkOwner(l *Loop, i, threads int) int {
	if !l.Parallel {
		return 0
	}
	return workload.OwnerOf(l.Hi-l.Lo, i-l.Lo, threads)
}

// iterRange returns thread t's iterations of loop l.
func iterRange(l *Loop, t, threads int) (lo, hi int) {
	if !l.Parallel {
		if t == 0 {
			return l.Lo, l.Hi
		}
		return l.Lo, l.Lo
	}
	clo, chi := workload.ChunkOf(l.Hi-l.Lo, t, threads)
	return l.Lo + clo, l.Lo + chi
}

// footprint is one loop's writes to one array, indexed by element: the
// writer thread, or -1 where the loop does not write.
type footprint []int32

// writeFoot returns loop l's write footprint per written array. Reduction
// targets are excluded (they are handled by the reduction fallback, not
// producer-consumer pairing), and a loop without iterations writes
// nothing.
func writeFoot(prog *Program, l *Loop, threads int) map[string]footprint {
	foot := make(map[string]footprint)
	if l.Hi <= l.Lo {
		return foot
	}
	for _, w := range l.Writes {
		if _, ok := foot[w.Array]; !ok {
			f := make(footprint, prog.Arrays[w.Array].Len)
			for e := range f {
				f[e] = -1
			}
			foot[w.Array] = f
		}
	}
	for t := 0; t < threads; t++ {
		lo, hi := iterRange(l, t, threads)
		for i := lo; i < hi; i++ {
			for _, w := range l.Writes {
				foot[w.Array][w.At(i)] = int32(t)
			}
		}
	}
	return foot
}

// Analyze compiles prog for the given thread count: it builds the control
// flow, extracts producer-consumer epoch pairs via DEF-USE over the
// numeric access footprints, plans inspectors for irregular reads, and
// records reduction fallbacks.
func Analyze(prog *Program, threads int) *Plan {
	var flat []flatLoop
	nextRegion := 0
	flatten(prog.Stmts, -1, &nextRegion, &flat)

	plan := &Plan{Prog: prog, Threads: threads, Loops: make(map[*Loop]*LoopPlan), flat: flat}
	foots := make([]map[string]footprint, len(flat))
	for i, fl := range flat {
		plan.Loops[fl.loop] = &LoopPlan{
			WBOut: make([][]Annotation, threads),
			INVIn: make([][]Annotation, threads),
		}
		foots[i] = writeFoot(prog, fl.loop, threads)
	}

	for ci, cf := range flat {
		cons := cf.loop
		for ri, rd := range cons.Reads {
			sameIter, backEdge, outside := plan.reachableProducers(ci, rd.Array, foots)
			if len(sameIter)+len(backEdge)+len(outside) == 0 {
				continue
			}
			if rd.Indirect {
				// Inspector-executor: the compiler cannot see the
				// footprint; derive the element-owner function from the
				// producers' static schedules. When the steady-state
				// (back-edge) writer and the first-iteration writer of an
				// element belong to different threads, the owner is
				// reported as OwnerUnknown and the lowering invalidates
				// globally.
				owner := plan.ownerFunc(rd.Array, sameIter, backEdge, outside, foots)
				lp := plan.Loops[cons]
				lp.Inspectors = append(lp.Inspectors, InspectorPlan{ReadIdx: ri, OwnerOf: owner})
				// Producer side: every reaching producer writes its whole
				// footprint to L3 (Section V-A.2: exact consumer analysis
				// of indirect reads is skipped).
				for _, pf := range concat(sameIter, backEdge, outside) {
					plan.addProducerGlobalWB(pf.loop, rd.Array, foots[pf.index][rd.Array])
				}
				continue
			}
			plan.pairDirect(ci, ri, sameIter, backEdge, outside, foots)
		}
		// Reduction consumers: any loop reading an array that a reachable
		// reduction targets gets a conservative global INV of the read
		// footprint (no producer-consumer order exists).
		for _, rd := range cons.Reads {
			if rd.Indirect {
				continue
			}
			for _, pf := range flat {
				if pf.loop.Reduction == nil || pf.loop == cons {
					continue
				}
				if pf.loop.Reduction.Array != rd.Array || !plan.reaches(pf.index, ci) {
					continue
				}
				arr := prog.Arrays[rd.Array]
				reduced := make([]bool, arr.Len)
				for i := pf.loop.Lo; i < pf.loop.Hi; i++ {
					reduced[pf.loop.Reduction.At(i)] = true
				}
				for u := 0; u < threads; u++ {
					lo, hi := iterRange(cons, u, threads)
					var elems []int
					for i := lo; i < hi; i++ {
						if e := rd.At(i); reduced[e] {
							elems = append(elems, e)
						}
					}
					if len(elems) == 0 {
						continue
					}
					plan.Loops[cons].INVIn[u] = append(plan.Loops[cons].INVIn[u], Annotation{
						Ranges: elemsToRanges(arr, elems),
						Multi:  true,
					})
				}
			}
		}
	}
	return plan
}

// reaches reports whether loop at flat index p can feed loop at flat index
// c: program order, or both inside the same time-loop region (back edge).
func (pl *Plan) reaches(p, c int) bool {
	if p < c {
		return true
	}
	return pl.flat[p].region >= 0 && pl.flat[p].region == pl.flat[c].region
}

// reachableProducers classifies the producers of array reaching consumer
// ci by dependence distance, each group nearest-first:
//
//   - sameIter: producers earlier in the same time-loop iteration (or in
//     straight-line code before the consumer inside the same region) —
//     these kill everything older;
//   - backEdge: producers later in the region, feeding the consumer via
//     the time loop's back edge (steady-state source from iteration 2 on);
//   - outside: producers before the consumer's region (the source on the
//     first iteration when no sameIter producer writes the element).
func (pl *Plan) reachableProducers(ci int, array string, foots []map[string]footprint) (sameIter, backEdge, outside []flatLoop) {
	creg := pl.flat[ci].region
	for pi, pf := range pl.flat {
		if pi == ci {
			continue
		}
		if _, writes := foots[pi][array]; !writes {
			continue
		}
		switch {
		case pf.region == creg && pi < ci:
			sameIter = append(sameIter, pf)
		case creg >= 0 && pf.region == creg:
			backEdge = append(backEdge, pf)
		case pi < ci:
			outside = append(outside, pf)
		}
	}
	sort.Slice(sameIter, func(a, b int) bool { return sameIter[a].index > sameIter[b].index })
	sort.Slice(backEdge, func(a, b int) bool { return backEdge[a].index > backEdge[b].index })
	sort.Slice(outside, func(a, b int) bool { return outside[a].index > outside[b].index })
	return sameIter, backEdge, outside
}

func concat(groups ...[]flatLoop) []flatLoop {
	var out []flatLoop
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// producerSrc identifies one producer occurrence.
type producerSrc struct{ pi, t int }

// candidateProducers appends to out the producer occurrences that can be
// the last writer of element e at some dynamic consumption: if a same-
// iteration producer writes e it is the unique candidate; otherwise the
// nearest back-edge writer (iterations ≥ 2) and the nearest preceding
// outside writer (iteration 1) are both candidates.
func candidateProducers(out []producerSrc, e int, array string, sameIter, backEdge, outside []flatLoop, foots []map[string]footprint) []producerSrc {
	for _, pf := range sameIter {
		if t := foots[pf.index][array][e]; t >= 0 {
			return append(out, producerSrc{pf.index, int(t)})
		}
	}
	for _, pf := range backEdge {
		if t := foots[pf.index][array][e]; t >= 0 {
			out = append(out, producerSrc{pf.index, int(t)})
			break
		}
	}
	for _, pf := range outside {
		if t := foots[pf.index][array][e]; t >= 0 {
			out = append(out, producerSrc{pf.index, int(t)})
			break
		}
	}
	return out
}

// OwnerUnknown is returned by an inspector's OwnerOf when an element's
// possible last writers belong to different threads; the lowering then
// invalidates globally.
const OwnerUnknown = -2

// ownerFunc builds the inspector's element-owner function.
func (pl *Plan) ownerFunc(array string, sameIter, backEdge, outside []flatLoop, foots []map[string]footprint) func(int) int {
	return func(e int) int {
		var buf [2]producerSrc
		cands := candidateProducers(buf[:0], e, array, sameIter, backEdge, outside, foots)
		if len(cands) == 0 || !allSameThread(cands) {
			return OwnerUnknown
		}
		return cands[0].t
	}
}

// pairDirect extracts producer-consumer pairs for a direct (affine) read:
// for each consumer thread, each element is attributed to its candidate
// last writers (DEF-USE with kills across the back edge), then grouped
// into per-(producer-thread, consumer-thread) ranges yielding WB_CONS at
// the producer and INV_PROD at the consumer. Elements whose candidate
// writers span several threads lower to conservative global instructions.
func (pl *Plan) pairDirect(ci, ri int, sameIter, backEdge, outside []flatLoop, foots []map[string]footprint) {
	cons := pl.flat[ci].loop
	rd := cons.Reads[ri]
	arr := pl.Prog.Arrays[rd.Array]

	// Candidate writers per element, computed on first use and carved
	// from one shared slab; seen[e] is the last consumer thread (plus
	// one) that read e, so each thread handles each element it reads
	// once.
	elemCands := make([][]producerSrc, arr.Len)
	known := make([]bool, arr.Len)
	var slab []producerSrc
	seen := make([]int32, arr.Len)
	invElems := make(map[producerSrc][]int) // single-writer pieces
	wbElems := make(map[producerSrc][]int)
	note := func(elems []int) {
		for _, e := range elems {
			for _, c := range elemCands[e] {
				wbElems[c] = append(wbElems[c], e)
			}
		}
	}
	for u := 0; u < pl.Threads; u++ {
		lo, hi := iterRange(cons, u, pl.Threads)
		clear(invElems)
		clear(wbElems)
		var multiElems []int // conflicting-writer pieces
		for i := lo; i < hi; i++ {
			e := rd.At(i)
			if seen[e] == int32(u+1) {
				continue
			}
			seen[e] = int32(u + 1)
			if !known[e] {
				n := len(slab)
				slab = candidateProducers(slab, e, rd.Array, sameIter, backEdge, outside, foots)
				elemCands[e] = slab[n:len(slab):len(slab)]
				known[e] = true
			}
			switch cands := elemCands[e]; {
			case len(cands) == 0:
				// Never-written (initial) data: nothing to communicate.
			case allSameThread(cands):
				if cands[0].t == u {
					continue // produced by this thread: no communication
				}
				s := producerSrc{cands[0].pi, cands[0].t}
				invElems[s] = append(invElems[s], e)
			default:
				multiElems = append(multiElems, e)
			}
		}
		// WB side: every candidate occurrence must write back the
		// elements this consumer reads from it (the outside producer
		// feeds the first iteration, the back-edge one the rest).
		for s, elems := range invElems {
			note(elems)
			pl.Loops[cons].INVIn[u] = append(pl.Loops[cons].INVIn[u], Annotation{Ranges: elemsToRanges(arr, elems), Peer: s.t})
		}
		if len(multiElems) > 0 {
			note(multiElems)
			pl.Loops[cons].INVIn[u] = append(pl.Loops[cons].INVIn[u], Annotation{
				Ranges: elemsToRanges(arr, multiElems), Multi: true,
			})
		}
		for c, elems := range wbElems {
			pl.addWB(pl.flat[c.pi].loop, c.t, u, elemsToRanges(arr, elems))
		}
	}
	sortAnnotations(pl.Loops[cons].INVIn)
}

func allSameThread(cands []producerSrc) bool {
	for _, c := range cands[1:] {
		if c.t != cands[0].t {
			return false
		}
	}
	return true
}

// addWB records that producer thread t must write back ranges for
// consumer thread u at the end of loop prod. A range read by up to two
// distinct consumers gets one WB_CONS per consumer (the two-neighbor case
// of boundary exchange; the second WB finds the L1 line already clean and
// only moves data deeper if its consumer's level requires it). A range
// with more than two consumers is a broadcast and collapses into a single
// conservative global annotation, matching the paper's serial-section
// handling ("the producer writes back the data to the last level cache").
func (pl *Plan) addWB(prod *Loop, t, u int, ranges []mem.Range) {
	lp := pl.Loops[prod]
	out := lp.WBOut[t]
	for _, r := range ranges {
		// Scan the existing annotations of r: covered if one is global
		// or names u, else count distinct other consumers (up to two).
		covered, consumers, first := false, 0, 0
		for _, ann := range out {
			if !slices.Contains(ann.Ranges, r) {
				continue
			}
			switch {
			case ann.Multi || ann.Peer == u:
				covered = true
			case consumers == 0:
				consumers, first = 1, ann.Peer
			case ann.Peer != first:
				consumers = 2
			}
		}
		switch {
		case covered:
			// Already covered (globally, or for this consumer).
		case consumers >= 2:
			// Third distinct consumer: collapse to one global annotation.
			kept := out[:0]
			for _, ann := range out {
				if len(ann.Ranges) == 1 && ann.Ranges[0] == r {
					continue
				}
				kept = append(kept, ann)
			}
			out = append(kept, Annotation{Ranges: []mem.Range{r}, Multi: true})
		default:
			out = append(out, Annotation{Ranges: []mem.Range{r}, Peer: u})
		}
	}
	sortAnns(out)
	lp.WBOut[t] = out
}

// addProducerGlobalWB records a whole-footprint global writeback for
// producer threads feeding an irregular consumer.
func (pl *Plan) addProducerGlobalWB(prod *Loop, array string, foot footprint) {
	perThread := make(map[int32][]int)
	for e, t := range foot {
		if t >= 0 {
			perThread[t] = append(perThread[t], e)
		}
	}
	lp := pl.Loops[prod]
	arr := pl.Prog.Arrays[array]
	for t, elems := range perThread {
		ann := Annotation{Ranges: elemsToRanges(arr, elems), Multi: true}
		// Avoid duplicating an identical fallback annotation.
		dup := false
		for _, have := range lp.WBOut[t] {
			if have.Multi && slices.Equal(have.Ranges, ann.Ranges) {
				dup = true
				break
			}
		}
		if !dup {
			lp.WBOut[t] = append(lp.WBOut[t], ann)
			sortAnns(lp.WBOut[t])
		}
	}
}

// elemsToRanges coalesces elements (in any order, repeats allowed) into
// maximal consecutive byte ranges of the array. It sorts elems in place.
func elemsToRanges(arr workload.Array, elems []int) []mem.Range {
	if len(elems) == 0 {
		return nil
	}
	slices.Sort(elems)
	var out []mem.Range
	start, prev := elems[0], elems[0]
	for _, e := range elems[1:] {
		if e == prev {
			continue
		}
		if e == prev+1 {
			prev = e
			continue
		}
		out = append(out, arr.Slice(start, prev-start+1))
		start, prev = e, e
	}
	out = append(out, arr.Slice(start, prev-start+1))
	return out
}

// sortAnnotations keeps every thread's annotation list in a deterministic
// order.
func sortAnnotations(per [][]Annotation) {
	for _, anns := range per {
		sortAnns(anns)
	}
}

// sortAnns orders one annotation list by first range base, then peer.
// Callers sort only the lists they modify: re-sorting every thread's
// list on each insertion would make plan construction quadratic in the
// thread count.
func sortAnns(anns []Annotation) {
	slices.SortFunc(anns, func(a, b Annotation) int {
		if c := cmp.Compare(a.Ranges[0].Base, b.Ranges[0].Base); c != 0 {
			return c
		}
		return cmp.Compare(a.Peer, b.Peer)
	})
}
