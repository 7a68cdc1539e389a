// Command intrablock regenerates the paper's intra-block evaluation:
// Figure 9 (normalized execution time under HCC / Base / B+M / B+I / B+M+I
// with the INV/WB/lock/barrier/rest stall breakdown) and Figure 10
// (normalized network traffic of HCC vs B+M+I).
//
// Usage:
//
//	intrablock [-scale test|bench] [-traffic] [-parallel N] [-timeout D] [-json] [-timing]
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
// delegates the sweep (suite "intra") to a hicserve instance and prints
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
	log.SetPrefix("intrablock: ")
	f := cli.Register(flag.CommandLine, cli.FigureFlags)
	trafficOnly := flag.Bool("traffic", false, "print only Figure 10 (traffic)")
	flag.Parse()
	if err := f.Validate(); err != nil {
		log.Fatal(err)
	}
	s, err := f.ScaleValue()
	if err != nil {
		log.Fatal(err)
	}
	if f.Server != "" {
		if _, err := f.RunRemote(context.Background(), serve.Request{Suite: "intra"}, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	stopProfiles := f.StartProfiles()
	defer stopProfiles()

	res, err := hic.RunIntra(context.Background(), s, f.Options()...)
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
	if !*trafficOnly {
		fmt.Println(res.Figure9.Render())
		printMeans("Figure 9 mean normalized execution time", res.Figure9)
		fmt.Println()
	}
	fmt.Println(res.Figure10.Render())
	printMeans("Figure 10 mean normalized traffic", res.Figure10)
}

func printMeans(title string, f *hic.Figure) {
	fmt.Println(title + ":")
	means := f.MeanTotals()
	for _, label := range barOrder(f) {
		fmt.Printf("  %-8s %6.3f\n", label, means[label])
	}
}

func barOrder(f *hic.Figure) []string {
	if len(f.Groups) == 0 {
		return nil
	}
	var out []string
	for _, b := range f.Groups[0].Bars {
		out = append(out, b.Label)
	}
	return out
}
