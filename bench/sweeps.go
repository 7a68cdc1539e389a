package main

// The two sweep workloads. An untraced pass calls the root package's
// sweep exactly as the CLIs do; a traced pass rebuilds the same cells
// from the public pieces (workload constructors, hierarchy factories,
// compiler.Lower, the engine) so each layer call can be timed.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	hic "repro"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/runner"
	"repro/internal/shapecheck"
)

// Pinned SHA-256 digests of the canonical bench-scale documents, as
// `intrablock -scale bench -json` prints them; inter-manycore hashes the
// output of `interblock -scale bench -json` followed by that of
// `hicsim -scale bench -blocks 128 -json`.
const (
	pinIntra         = "40175453a45a12d055e3f6a2f6f34b3d812d8340e3f3227f9d70f2122a4d3e72"
	pinInterManycore = "7308300b8018ee0fc4bcfa09464ec18d23f18bddd0eab899de6f6fbeb6cf3013"
)

// cellTask is one traced sweep cell.
type cellTask struct {
	suite, workload, config string
	run                     func(ctx context.Context, tr *tracer) (*engine.Result, error)
}

func (c cellTask) key() string { return c.suite + "/" + c.workload + "/" + c.config }

// Set-up of both sweep workloads is a warm-up: the same sweep at test
// scale, so the timed passes start with the heap grown and every code
// path run once. An untraced pass's sweep error joins the failed cells'
// errors, which their run records carry too.

func setupIntra(cfg config) (*instance, error) {
	s := cfg.size
	if _, err := hic.RunIntra(context.Background(), hic.ScaleTest, hic.WithParallel(workers), hic.WithOnly(s.intraApps...)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	inst := &instance{}
	if s.pins {
		inst.pin = pinIntra
	}
	inst.run = func(ctx context.Context, tr *tracer) (*pass, error) {
		if tr != nil {
			return tracedSweep(ctx, tr, intraCells(s))
		}
		start := time.Now()
		res, _ := hic.RunIntra(ctx, s.scale, hic.WithParallel(workers), hic.WithOnly(s.intraApps...))
		p := &pass{wall: time.Since(start), cells: map[string]any{}}
		sweepRecords(p, res.Runs)
		for app, byCfg := range res.Raw {
			for c, r := range byCfg {
				p.addResult("intra/"+app+"/"+c, r)
			}
		}
		p.digest = digestDocs(p, s.pins, res.Document(s.scale))
		return p, nil
	}
	return inst, nil
}

func setupInterManycore(cfg config) (*instance, error) {
	s := cfg.size
	ctx := context.Background()
	if _, err := hic.RunInter(ctx, hic.ScaleTest, hic.WithParallel(workers), hic.WithOnly(s.interApps...)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, err := hic.RunManycore(ctx, hic.ScaleTest, hic.ManycoreBlockCounts(min(s.maxBlocks, 16)), 0, hic.WithParallel(workers)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	inst := &instance{}
	if s.pins {
		inst.pin = pinInterManycore
	}
	inst.run = func(ctx context.Context, tr *tracer) (*pass, error) {
		if tr != nil {
			return tracedSweep(ctx, tr, interCells(s), manycoreCells(s))
		}
		start := time.Now()
		inter, _ := hic.RunInter(ctx, s.scale, hic.WithParallel(workers), hic.WithOnly(s.interApps...))
		many, _ := hic.RunManycore(ctx, s.scale, hic.ManycoreBlockCounts(s.maxBlocks), 0, hic.WithParallel(workers))
		p := &pass{wall: time.Since(start), cells: map[string]any{}}
		sweepRecords(p, inter.Runs)
		sweepRecords(p, many.Runs)
		for app, byMode := range inter.Raw {
			for m, r := range byMode {
				p.addResult("inter/"+app+"/"+m, r)
			}
		}
		for app, byBlocks := range many.Raw {
			for b, r := range byBlocks {
				p.addResult(fmt.Sprintf("manycore/%s/blocks-%d", app, b), r)
			}
		}
		p.digest = digestDocs(p, s.pins, inter.Document(s.scale), many.Document(s.scale))
		return p, nil
	}
	return inst, nil
}

func wanted(only []string, name string) bool {
	if len(only) == 0 {
		return true
	}
	for _, n := range only {
		if n == name {
			return true
		}
	}
	return false
}

// sweepRecords takes a sweep's cells as the pass's items.
func sweepRecords(p *pass, runs []runner.RunRecord) {
	for _, r := range runs {
		p.itemMS = append(p.itemMS, r.WallMS)
		if r.Error != "" {
			p.fail("%s/%s: %s", r.Workload, r.Config, r.Error)
		}
	}
}

func (p *pass) addResult(key string, r *engine.Result) {
	p.cells[key] = r
	for _, n := range r.Ops {
		p.ops += n
	}
}

// digestDocs hashes the canonical encodings of docs and, at the
// benchmark's size, runs the paper's shape checks on each; a failed
// check fails every item of the pass.
func digestDocs(p *pass, shapes bool, docs ...*runner.Document) string {
	h := sha256.New()
	for _, d := range docs {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			p.fail("encode %s document: %v", d.Suite, err)
		}
		h.Write(buf.Bytes())
		if !shapes {
			continue
		}
		if vs := shapecheck.Check(d); len(vs) > 0 {
			p.failAll("%s", strings.TrimSpace(shapecheck.Render(vs)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tracedSweep runs each group of cells through the runner in turn, as
// the untraced pass runs one sweep after another.
func tracedSweep(ctx context.Context, tr *tracer, groups ...[]cellTask) (*pass, error) {
	p := &pass{cells: map[string]any{}}
	for _, cells := range groups {
		tasks := make([]runner.Task, len(cells))
		for i, c := range cells {
			tasks[i] = runner.Task{Workload: c.workload, Config: c.config, Run: func(ctx context.Context) (*runner.Outcome, error) {
				r, err := c.run(ctx, tr)
				if err != nil {
					return nil, err
				}
				return &runner.Outcome{Result: r}, nil
			}}
		}
		start := time.Now()
		grid := runner.Run(ctx, tasks, runner.Options{Parallel: workers})
		p.wall += time.Since(start)
		for i, c := range grid.Cells() {
			tr.add("runner.busy_s", c.Wall.Seconds())
			p.itemMS = append(p.itemMS, ms(c.Wall))
			if c.Err != nil {
				p.fail("%s: %v", cells[i].key(), c.Err)
				continue
			}
			p.addResult(cells[i].key(), c.Outcome.Result)
		}
	}
	return p, nil
}

// intraCells mirrors the root package's intra sweep tasks: every cell
// rebuilds its application.
func intraCells(s size) []cellTask {
	var cells []cellTask
	for i, w := range hic.IntraWorkloads(s.scale) {
		if !wanted(s.intraApps, w.Name) {
			continue
		}
		for _, cfg := range hic.IntraConfigs {
			cells = append(cells, cellTask{"intra", w.Name, cfg.Name, func(ctx context.Context, tr *tracer) (*engine.Result, error) {
				var wl *hic.Workload
				tr.time("apps.build_s", func() { wl = hic.IntraWorkloads(s.scale)[i] })
				h := hic.NewHierarchy(hic.NewIntraMachine(), cfg)
				return tr.runCell(ctx, h, wl.Guests(cfg), wl.Verify)
			}})
		}
	}
	return cells
}

// interCells mirrors the inter sweep tasks.
func interCells(s size) []cellTask {
	var cells []cellTask
	for i, w := range hic.InterWorkloads(s.scale) {
		if !wanted(s.interApps, w.Name) {
			continue
		}
		for _, mode := range hic.InterModes {
			cells = append(cells, cellTask{"inter", w.Name, mode.String(), func(ctx context.Context, tr *tracer) (*engine.Result, error) {
				var wl *hic.IRWorkload
				tr.time("apps.build_s", func() { wl = hic.InterWorkloads(s.scale)[i] })
				h := hic.NewModeHierarchy(hic.NewInterMachine(), mode)
				var guests []engine.Guest
				tr.time("compiler.lower_s", func() { guests = compiler.Lower(wl.Prog, wl.Threads, mode) })
				return tr.runCell(ctx, h, guests, wl.VerifyMemory)
			}})
		}
	}
	return cells
}

// manycoreCells mirrors the manycore sweep tasks, including their
// (workload, config) string order.
func manycoreCells(s size) []cellTask {
	var cells []cellTask
	for _, w := range hic.ManycoreWorkloads(s.scale, hic.DefaultManycoreCoresPerBlock) {
		for _, blocks := range hic.ManycoreBlockCounts(s.maxBlocks) {
			cells = append(cells, cellTask{"manycore", w.Name, fmt.Sprintf("blocks-%d", blocks), func(ctx context.Context, tr *tracer) (*engine.Result, error) {
				m := hic.NewManycoreMachine(blocks, hic.DefaultManycoreCoresPerBlock)
				var wl *hic.IRWorkload
				tr.time("apps.build_s", func() {
					for _, c := range hic.ManycoreWorkloads(s.scale, m.NumCores()) {
						if c.Name == w.Name {
							wl = c
						}
					}
				})
				h := hic.NewModeHierarchy(m, hic.ModeAddrL)
				var guests []engine.Guest
				tr.time("compiler.lower_s", func() { guests = compiler.Lower(wl.Prog, wl.Threads, hic.ModeAddrL) })
				return tr.runCell(ctx, h, guests, wl.VerifyMemory)
			}})
		}
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].workload != cells[j].workload {
			return cells[i].workload < cells[j].workload
		}
		return cells[i].config < cells[j].config
	})
	return cells
}
