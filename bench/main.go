// Command hicbench is the repository's end-to-end benchmark. It runs one
// workload per process (see README.md for the five workloads and why each
// was chosen), checks that every output matches its pinned or locally
// computed reference, and prints one JSON line of metrics:
//
//	hicbench -workload intra-fig9 [-seed 1] [-seconds 15] [-trace 0|1] [-out file]
//
// With -trace 0 the process runs passes back to back until -seconds is
// spent and reports the end-to-end metrics. With -trace 1 it runs one
// untraced pass under a CPU profile and one pass with every layer call
// timed, checks that the two passes computed identical results, and
// reports the per-layer metrics. The last line of standard output is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// and the exit code is nonzero whenever correct is false.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed (changes the serve-mix and fuzz-campaign inputs)")
	seconds := flag.Float64("seconds", 15, "how long the untraced passes may run")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass instead of end-to-end metrics")
	out := flag.String("out", "", "also write the full result (header, metrics, sample counts) to this file")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	res, err := run(context.Background(), config{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		size: benchSize,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "hicbench: %s\n", p)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
			os.Exit(1)
		}
	}
	header, _ := json.Marshal(res.Header)
	fmt.Println(string(header))
	line, err := json.Marshal(summary{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hicbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// summary is the final line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
