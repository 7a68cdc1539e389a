// Command interblock regenerates the paper's inter-block evaluation:
// Figure 11 (normalized global WB/INV counts of Addr vs Addr+L) and Figure
// 12 (normalized execution time under HCC / Base / Addr / Addr+L).
//
// Usage:
//
//	interblock [-scale test|bench] [-counts] [-parallel N] [-timeout D] [-json] [-timing]
//	           [-check-coherence] [-metrics] [-trace-chrome F]
//	           [-cpuprofile F] [-memprofile F] [-server URL]
//
// Runs fan out across -parallel workers (default GOMAXPROCS) with results
// identical to a serial sweep; -timeout bounds each individual run. With
// -json the result is a machine-readable document on stdout (schema
// hic/v2; canonical unless -timing adds host wall times).
// -check-coherence attaches the shadow-memory coherence oracle to every
// run; a violation fails the cell with a labeled coherence error.
// -metrics embeds per-run observability snapshots in the JSON records;
// -trace-chrome writes the sweep's stall timelines as a Chrome
// trace_event file (open in Perfetto). -server URL
// delegates the sweep (suite "inter") to a hicserve instance and prints
// the fetched document — byte-identical to a local -json run.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	hic "repro"
	"repro/internal/cli"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("interblock: ")
	f := cli.Register(flag.CommandLine, cli.FigureFlags)
	countsOnly := flag.Bool("counts", false, "print only Figure 11 (global WB/INV counts)")
	flag.Parse()
	if err := f.Validate(); err != nil {
		log.Fatal(err)
	}
	s, err := f.ScaleValue()
	if err != nil {
		log.Fatal(err)
	}
	if f.Server != "" {
		if _, err := f.RunRemote(context.Background(), serve.Request{Suite: "inter"}, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	stopProfiles := f.StartProfiles()
	defer stopProfiles()

	res, err := hic.RunInter(context.Background(), s, f.Options()...)
	if f.JSON {
		if encErr := f.EncodeDoc(os.Stdout, res.Document(s)); encErr != nil {
			log.Fatal(encErr)
		}
	}
	if traceErr := f.WriteTraces(res.Traces); traceErr != nil {
		log.Fatal(traceErr)
	}
	if err != nil {
		log.Fatal(err)
	}
	if f.JSON {
		return
	}
	fmt.Println(res.Figure11.Render())
	if *countsOnly {
		return
	}
	fmt.Println(res.Figure12.Render())
	fmt.Println("Figure 12 mean normalized execution time:")
	means := res.Figure12.MeanTotals()
	for _, mode := range hic.InterModes {
		fmt.Printf("  %-8s %6.3f\n", mode, means[mode.String()])
	}
}
