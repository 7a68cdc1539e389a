package hic

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/workload"
)

// This file implements the many-core block-scaling experiment (E9): the
// same Model 2 applications as the inter-block evaluation, run on custom
// machines from 1 block up to 128 blocks of 8 cores (1024 cores), under
// the level-adaptive Addr+L mode. The experiment exists to exercise the
// simulator itself at scale, and the curve documents how simulated
// execution time scales as the same problem is spread over more blocks.

// DefaultManycoreCoresPerBlock matches the paper's 8-core blocks.
const DefaultManycoreCoresPerBlock = 8

// NewManycoreMachine returns a custom machine with the given block count
// and cores per block (Table III parameters, 4 L3 banks), calibrated like
// the intra/inter machines.
func NewManycoreMachine(blocks, coresPerBlock int) *Machine {
	m := topo.NewCustom(blocks, coresPerBlock, 4, topo.DefaultParams())
	m.Params.TraversalPerFrame = 4
	return m
}

// ManycoreBlockCounts returns the powers of two from 1 through max (max
// itself included when it is a power of two).
func ManycoreBlockCounts(max int) []int {
	var counts []int
	// b turns negative when doubling overflows past the largest power of
	// two an int holds.
	for b := 1; b > 0 && b <= max; b *= 2 {
		counts = append(counts, b)
	}
	return counts
}

// ManycoreWorkloads returns the block-scaling applications for a machine
// with the given core count: Jacobi (nearest-neighbor exchange, the
// level-adaptive best case) and NAS EP (reduction-only communication).
// Every core runs one thread.
func ManycoreWorkloads(s Scale, threads int) []*IRWorkload {
	return buildAll(manycoreApps, s, threads)
}

// ManycoreResult is the outcome of the block-scaling experiment.
type ManycoreResult struct {
	// Curve holds one group per application and one bar per block count;
	// the single segment is the simulated execution time normalized to
	// the smallest machine in the sweep (strong scaling: the problem
	// size is fixed while cores grow).
	Curve *Figure
	// Raw holds every successful run's engine result, keyed by app then
	// block count.
	Raw map[string]map[int]*Result
	// Runs holds one record per run in sweep order (errors included).
	Runs []runner.RunRecord
}

// manycoreConfig is the grid's config key for a block count.
func manycoreConfig(blocks int) string { return fmt.Sprintf("blocks-%d", blocks) }

// manycoreTasks builds one task per (application, block count). Each
// cell constructs its own machine, hierarchy and application. Runs has
// always been recorded sorted by (workload, config label), so the tasks
// sort both by label: "ep" before "jacobi", and "blocks-128" before
// "blocks-16".
func manycoreTasks(s Scale, blockCounts []int, coresPerBlock int, opts RunOptions) []runner.Task {
	apps := slices.SortedFunc(slices.Values(selected(manycoreApps, opts.Only)), func(a, b app[*IRWorkload]) int {
		return strings.Compare(a.name, b.name)
	})
	blocks := slices.SortedFunc(slices.Values(blockCounts), func(a, b int) int {
		return strings.Compare(manycoreConfig(a), manycoreConfig(b))
	})
	topology := fmt.Sprintf("manycore/%d", coresPerBlock)
	var tasks []runner.Task
	for _, a := range apps {
		for _, b := range blocks {
			tasks = append(tasks, opts.cell(s, topology, a.name, manycoreConfig(b), false, func() workload.Cell {
				m := NewManycoreMachine(b, coresPerBlock)
				return a.build(s, m.NumCores()).Cell(NewModeHierarchy(m, ModeAddrL), ModeAddrL)
			}))
		}
	}
	return tasks
}

// RunManycore executes the block-scaling sweep at scale s over the given
// block counts (nil means 1..128) with coresPerBlock cores per block
// (<= 0 means 8), under functional options.
func RunManycore(ctx context.Context, s Scale, blockCounts []int, coresPerBlock int, opts ...Option) (*ManycoreResult, error) {
	return runManycoreOpts(ctx, s, blockCounts, coresPerBlock, NewRunOptions(opts...))
}

// ManycoreCells lists the block-scaling sweep's cells over the given
// block counts like IntraCells.
func ManycoreCells(blockCounts []int, only ...string) [][2]string {
	return taskCells(manycoreTasks(ScaleTest, blockCounts, DefaultManycoreCoresPerBlock, RunOptions{Only: only}))
}

// runManycoreOpts is the struct-options form behind RunManycore; error
// semantics match the other sweeps (partial results plus joined per-cell
// errors).
func runManycoreOpts(ctx context.Context, s Scale, blockCounts []int, coresPerBlock int, opts RunOptions) (*ManycoreResult, error) {
	if len(blockCounts) == 0 {
		blockCounts = ManycoreBlockCounts(128)
	}
	if coresPerBlock <= 0 {
		coresPerBlock = DefaultManycoreCoresPerBlock
	}
	grid := runner.Run(ctx, manycoreTasks(s, blockCounts, coresPerBlock, opts), opts.runner())
	res := &ManycoreResult{
		Curve: &Figure{
			ID:         "manycore",
			Title:      fmt.Sprintf("Block scaling: normalized execution time (%d cores/block, Addr+L)", coresPerBlock),
			Categories: []string{"cycles"},
		},
		Raw:  make(map[string]map[int]*Result),
		Runs: grid.Records(),
	}
	for _, a := range selected(manycoreApps, opts.Only) {
		res.Raw[a.name] = make(map[int]*Result)
		for _, blocks := range blockCounts {
			if r := grid.Result(a.name, manycoreConfig(blocks)); r != nil {
				res.Raw[a.name][blocks] = r
			}
		}
		// Normalize to the smallest machine by key, so the curve does not
		// depend on completion order.
		base := grid.Result(a.name, manycoreConfig(blockCounts[0]))
		if base == nil {
			continue
		}
		g := stats.Group{Name: a.name}
		for _, blocks := range blockCounts {
			r := grid.Result(a.name, manycoreConfig(blocks))
			if r == nil {
				continue
			}
			g.Bars = append(g.Bars, stats.Bar{
				Label:    manycoreConfig(blocks),
				Segments: []float64{ratio(float64(r.Cycles), float64(base.Cycles))},
			})
		}
		res.Curve.Groups = append(res.Curve.Groups, g)
	}
	return res, grid.Err()
}

// Document serializes the result for the shape checker and external
// tooling.
func (r *ManycoreResult) Document(s Scale) *runner.Document {
	return document(s, "manycore", r.Runs, r.Curve)
}
