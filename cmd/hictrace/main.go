// Command hictrace records an intra-block workload's per-thread
// instruction streams to trace files, replays recorded traces under any
// configuration, or dumps a trace as text.
//
// Usage:
//
//	hictrace record -app fft -config B+M+I -dir /tmp/traces
//	hictrace replay -config Base -dir /tmp/traces -threads 16 [-json]
//	hictrace dump -file /tmp/traces/t0.trace [-n 50]
//
// With -json, replay emits its timing as a machine-readable document
// (schema hic-replay/v1) on stdout. The document carries simulated
// cycles only — no host times — so two replays of the same traces are
// byte-identical.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strconv"

	hic "repro"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hictrace: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: hictrace record|replay|dump [flags]")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "dump":
		dump(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func configByName(name string) hic.Config {
	for _, cfg := range hic.IntraConfigs {
		if cfg.Name == name {
			return cfg
		}
	}
	log.Fatalf("unknown config %q (want HCC, Base, B+M, B+I, or B+M+I)", name)
	panic("unreachable")
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "fft", "workload name (see hicsim -suite table1 for the list)")
	config := fs.String("config", "B+M+I", "configuration to record under")
	dir := fs.String("dir", ".", "output directory")
	fs.Parse(args)

	var w *hic.Workload
	for _, cand := range hic.IntraWorkloads(hic.ScaleTest) {
		if cand.Name == *app {
			w = cand
		}
	}
	if w == nil {
		log.Fatalf("unknown workload %q", *app)
	}
	cfg := configByName(*config)
	guests := w.Guests(cfg)
	writers := make([]*trace.Writer, len(guests))
	for i := range guests {
		f, err := os.Create(filepath.Join(*dir, "t"+strconv.Itoa(i)+".trace"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tw, err := trace.NewWriter(f)
		if err != nil {
			log.Fatal(err)
		}
		writers[i] = tw
		guests[i] = trace.Record(guests[i], tw)
	}
	h := hic.NewHierarchy(hic.NewIntraMachine(), cfg)
	res, err := hic.Run(h, guests)
	if err != nil {
		log.Fatal(err)
	}
	var ops int64
	for _, tw := range writers {
		if err := tw.Close(); err != nil {
			log.Fatal(err)
		}
		ops += tw.Len()
	}
	fmt.Printf("recorded %s under %s: %d threads, %d ops, %d cycles\n",
		w.Name, cfg.Name, len(guests), ops, res.Cycles)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	config := fs.String("config", "B+M+I", "configuration to replay under")
	dir := fs.String("dir", ".", "trace directory")
	threads := fs.Int("threads", 16, "thread count of the recording")
	jsonOut := fs.Bool("json", false, "emit replay timing as a deterministic JSON document")
	fs.Parse(args)

	cfg := configByName(*config)
	guests := make([]hic.Guest, *threads)
	for i := range guests {
		f, err := os.Open(filepath.Join(*dir, "t"+strconv.Itoa(i)+".trace"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r, err := trace.NewReader(f)
		if err != nil {
			log.Fatal(err)
		}
		guests[i] = trace.Replay(r)
	}
	h := hic.NewHierarchy(hic.NewIntraMachine(), cfg)
	res, err := hic.Run(h, guests)
	if err != nil {
		log.Fatal(err)
	}
	inv, wb, lock, barrier, rest := res.Stalls.Figure9()
	if *jsonOut {
		doc := struct {
			Schema  string `json:"schema"`
			Config  string `json:"config"`
			Threads int    `json:"threads"`
			Cycles  int64  `json:"cycles"`
			Inv     int64  `json:"inv_stall"`
			WB      int64  `json:"wb_stall"`
			Lock    int64  `json:"lock_stall"`
			Barrier int64  `json:"barrier_stall"`
			Rest    int64  `json:"rest"`
		}{"hic-replay/v1", cfg.Name, *threads, res.Cycles, inv, wb, lock, barrier, rest}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("replayed under %s: %d cycles (inv=%d wb=%d lock=%d barrier=%d rest=%d)\n",
		cfg.Name, res.Cycles, inv, wb, lock, barrier, rest)
}

func dump(args []string) {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	file := fs.String("file", "", "trace file")
	n := fs.Int("n", 0, "max ops to print (0 = all)")
	fs.Parse(args)
	if *file == "" {
		log.Fatal("dump needs -file")
	}
	f, err := os.Open(*file)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; *n == 0 || i < *n; i++ {
		op, err := r.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d  %v\n", i, op)
	}
}
