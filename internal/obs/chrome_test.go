package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTrace builds a small synthetic two-cell trace exercising every
// event type the exporter emits: process/thread metadata, coalesced
// stall spans, and occupancy counter tracks.
func goldenTrace() []CellTrace {
	r := New(Config{})
	r.Span(0, stats.Busy, 0, 60)
	r.Span(0, stats.Busy, 60, 40) // adjacent: coalesces with the span above
	r.Span(0, stats.WBStall, 100, 40)
	r.Span(1, stats.LockStall, 25, 75)
	r.SetNow(0)
	r.Track("meb", 0).Sample(r.Now(), 0)
	r.SetNow(100)
	r.Track("meb", 0).Sample(r.Now(), 3)
	r.SetNow(140)
	r.Track("meb", 0).Sample(r.Now(), 0)

	r2 := New(Config{})
	r2.Span(0, stats.INVStall, 0, 12)
	return []CellTrace{
		{Workload: "fft", Config: "B+M+I", Trace: r.TraceData()},
		{Workload: "lu", Config: "Base", Trace: r2.TraceData()},
	}
}

func TestWriteChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("chrome output drifted from golden (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestWriteChromeWellFormed checks the structural contract Perfetto
// relies on: valid JSON, a traceEvents array, complete events with
// positive durations, and metadata naming every process and thread.
func TestWriteChromeWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, goldenTrace()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var spans, meta, counters int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur <= 0 {
				t.Errorf("complete event %q has dur %d", ev.Name, ev.Dur)
			}
		case "M":
			meta++
		case "C":
			counters++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 4 spans (the adjacent busy pair coalesces into one), 3 counter
	// samples, and 2 process + 3 thread metadata events.
	if spans != 4 || counters != 3 || meta != 5 {
		t.Errorf("spans/counters/meta = %d/%d/%d, want 4/3/5", spans, counters, meta)
	}
}
