package runner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/envelope"
	"repro/internal/stats"
)

// fixedTask returns a task whose outcome is a pure function of its labels,
// so serial and parallel sweeps must agree exactly.
func fixedTask(workload, config string, cycles int64) Task {
	return Task{
		Workload: workload,
		Config:   config,
		Run: func(ctx context.Context) (*Outcome, error) {
			r := &engine.Result{Cycles: cycles}
			r.Stalls.Add(stats.Busy, cycles/2)
			r.Stalls.Add(stats.LockStall, cycles/4)
			r.Traffic.Add(stats.Linefill, cycles*3)
			return &Outcome{Result: r, GlobalWB: cycles % 7, GlobalINV: cycles % 5}, nil
		},
	}
}

func sweepTasks() []Task {
	var tasks []Task
	for _, w := range []string{"fft", "lu", "barnes"} {
		for i, c := range []string{"HCC", "Base", "B+M+I"} {
			tasks = append(tasks, fixedTask(w, c, int64(1000+100*i+len(w))))
		}
	}
	return tasks
}

func TestGridKeyedAssemblyOrderIndependent(t *testing.T) {
	tasks := sweepTasks()
	g := Run(context.Background(), tasks, Options{Parallel: 1})
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if len(g.Cells()) != len(tasks) {
		t.Fatalf("got %d cells, want %d", len(g.Cells()), len(tasks))
	}
	// Cells land at their task's index and are addressable by key.
	for i, task := range tasks {
		c := g.Get(task.Workload, task.Config)
		if c == nil {
			t.Fatalf("missing cell %s/%s", task.Workload, task.Config)
		}
		if c != &g.Cells()[i] {
			t.Errorf("cell %s/%s not at task index %d", task.Workload, task.Config, i)
		}
	}
	if g.Get("fft", "nope") != nil || g.Get("nope", "HCC") != nil {
		t.Error("lookup of absent key should be nil")
	}
	if r := g.Result("lu", "Base"); r == nil || r.Cycles != 1102 {
		t.Errorf("Result(lu, Base) = %+v, want cycles 1102", r)
	}
}

func TestSerialAndParallelEmitIdenticalJSON(t *testing.T) {
	tasks := sweepTasks()
	doc := func(par int) []byte {
		g := Run(context.Background(), tasks, Options{Parallel: par})
		if err := g.Err(); err != nil {
			t.Fatal(err)
		}
		d := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindResults, Scale: "test", Suite: "intra", Runs: g.Records()}
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := doc(1)
	for _, par := range []int{2, 4, 16} {
		if got := doc(par); !bytes.Equal(serial, got) {
			t.Errorf("parallel=%d JSON differs from serial:\nserial:\n%s\nparallel:\n%s", par, serial, got)
		}
	}
}

func TestTimeoutFailsOnlyItsCell(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tasks := []Task{
		fixedTask("fft", "HCC", 1000),
		{
			Workload: "barnes", Config: "Base",
			Run: func(ctx context.Context) (*Outcome, error) {
				<-release // wedged guest: never finishes on its own
				return nil, ctx.Err()
			},
		},
		fixedTask("lu", "B+M+I", 2000),
	}
	g := Run(context.Background(), tasks, Options{Parallel: 2, Timeout: 20 * time.Millisecond})
	c := g.Get("barnes", "Base")
	var te *TimeoutError
	if c.Err == nil || !errors.As(c.Err, &te) {
		t.Fatalf("wedged cell error = %v, want TimeoutError", c.Err)
	}
	if te.Workload != "barnes" || te.Config != "Base" {
		t.Errorf("timeout labeled %s/%s, want barnes/Base", te.Workload, te.Config)
	}
	if !strings.Contains(c.Err.Error(), "barnes/Base") {
		t.Errorf("timeout message %q lacks the cell label", c.Err.Error())
	}
	// The other cells completed normally and the sweep did not hang.
	for _, key := range [][2]string{{"fft", "HCC"}, {"lu", "B+M+I"}} {
		if c := g.Get(key[0], key[1]); c.Err != nil || c.Outcome == nil {
			t.Errorf("%s/%s should have succeeded: %v", key[0], key[1], c.Err)
		}
	}
	// The joined sweep error names exactly the failed cell.
	if err := g.Err(); err == nil || !strings.Contains(err.Error(), "barnes/Base") {
		t.Errorf("sweep error %v should name barnes/Base", err)
	}
}

func TestPanicIsCapturedWithLabels(t *testing.T) {
	tasks := []Task{
		fixedTask("fft", "HCC", 1000),
		{
			Workload: "raytrace", Config: "B+M",
			Run: func(ctx context.Context) (*Outcome, error) {
				panic("guest exploded")
			},
		},
	}
	g := Run(context.Background(), tasks, Options{Parallel: 2})
	c := g.Get("raytrace", "B+M")
	var pe *PanicError
	if c.Err == nil || !errors.As(c.Err, &pe) {
		t.Fatalf("panicking cell error = %v, want PanicError", c.Err)
	}
	if pe.Workload != "raytrace" || pe.Config != "B+M" {
		t.Errorf("panic labeled %s/%s, want raytrace/B+M", pe.Workload, pe.Config)
	}
	if fmt.Sprint(pe.Value) != "guest exploded" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if !strings.Contains(c.Err.Error(), "raytrace/B+M") || !strings.Contains(c.Err.Error(), "guest exploded") {
		t.Errorf("panic message %q lacks label or value", c.Err.Error())
	}
	if c := g.Get("fft", "HCC"); c.Err != nil {
		t.Errorf("healthy cell failed: %v", c.Err)
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := Run(ctx, sweepTasks(), Options{Parallel: 2, Timeout: time.Minute})
	// Every task body observes a canceled context; fixedTask ignores ctx
	// and still succeeds — what matters is the sweep terminates. A task
	// that waits on ctx must fail with the cancellation, not hang.
	tasks := []Task{{
		Workload: "w", Config: "c",
		Run: func(ctx context.Context) (*Outcome, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	}}
	g = Run(ctx, tasks, Options{Parallel: 1})
	if err := g.Err(); err == nil {
		t.Fatal("canceled sweep should report an error")
	}
}

func TestRecordsCarryMetricsAndErrors(t *testing.T) {
	tasks := []Task{
		fixedTask("jacobi", "Addr", 3000),
		{
			Workload: "cg", Config: "Addr+L",
			Run: func(ctx context.Context) (*Outcome, error) {
				return nil, errors.New("verification: element 3 = 7, want 9")
			},
		},
	}
	g := Run(context.Background(), tasks, Options{Parallel: 1})
	recs := g.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	ok := recs[0]
	if ok.Workload != "jacobi" || ok.Cycles != 3000 || ok.Error != "" {
		t.Errorf("good record wrong: %+v", ok)
	}
	if ok.Stalls["busy"] != 1500 || ok.Stalls["lock"] != 750 {
		t.Errorf("stall breakdown wrong: %v", ok.Stalls)
	}
	if ok.Traffic["linefill"] != 9000 {
		t.Errorf("traffic breakdown wrong: %v", ok.Traffic)
	}
	if ok.GlobalWB != 3000%7 || ok.GlobalINV != 3000%5 {
		t.Errorf("global ops wrong: %+v", ok)
	}
	if ok.WallMS < 0 {
		t.Errorf("wall time negative: %v", ok.WallMS)
	}
	bad := recs[1]
	if bad.Cycles != 0 || !strings.Contains(bad.Error, "verification") {
		t.Errorf("failed record wrong: %+v", bad)
	}
}

func TestEncodeStripsWallTimeAndRoundTrips(t *testing.T) {
	g := Run(context.Background(), sweepTasks(), Options{Parallel: 1})
	d := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindResults, Scale: "test", Suite: "intra", Runs: g.Records()}
	var canon, timed bytes.Buffer
	if err := d.Encode(&canon); err != nil {
		t.Fatal(err)
	}
	if err := d.EncodeTiming(&timed); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(canon.String(), "wall_ms") {
		t.Error("canonical encoding leaks wall_ms")
	}
	// Encode must not mutate the document itself.
	if d.Runs[0].WallMS == 0 {
		t.Skip("run finished in under 1µs; wall time legitimately zero")
	}
	back, err := Decode(bytes.NewReader(canon.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != envelope.SchemaV2 || len(back.Runs) != len(d.Runs) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Runs[0].Cycles != d.Runs[0].Cycles {
		t.Errorf("round trip cycles = %d, want %d", back.Runs[0].Cycles, d.Runs[0].Cycles)
	}
}

func TestMergeAndFigureByID(t *testing.T) {
	a := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindResults, Scale: "test", Suite: "intra",
		Figures: []stats.Figure{{ID: "figure9"}, {ID: "figure10"}},
		Runs:    []RunRecord{{Workload: "fft", Config: "HCC"}}}
	b := &Document{Schema: envelope.SchemaV2, Kind: envelope.KindResults, Scale: "test", Suite: "inter",
		Figures: []stats.Figure{{ID: "figure11"}, {ID: "figure12"}},
		Runs:    []RunRecord{{Workload: "ep", Config: "Addr"}}}
	m := Merge(a, b)
	if m.Suite != "all" || m.Scale != "test" {
		t.Errorf("merge header wrong: %+v", m)
	}
	if len(m.Figures) != 4 || len(m.Runs) != 2 {
		t.Errorf("merge lost content: %d figures, %d runs", len(m.Figures), len(m.Runs))
	}
	if f := m.FigureByID("figure12"); f == nil || f.ID != "figure12" {
		t.Error("FigureByID(figure12) failed")
	}
	if m.FigureByID("figure99") != nil {
		t.Error("FigureByID of absent id should be nil")
	}
}

func TestWorkersClamping(t *testing.T) {
	cases := []struct {
		opts Options
		n    int
		want int
	}{
		{Options{Parallel: 8}, 3, 3},
		{Options{Parallel: 2}, 10, 2},
		{Options{Parallel: 1}, 0, 1},
	}
	for _, c := range cases {
		if got := c.opts.Workers(c.n); got != c.want {
			t.Errorf("Workers(%+v, %d) = %d, want %d", c.opts, c.n, got, c.want)
		}
	}
	if got := (Options{}).Workers(64); got < 1 {
		t.Errorf("default Workers = %d, want >= 1", got)
	}
}
