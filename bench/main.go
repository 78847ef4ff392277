// Command bench is the repository's benchmark: four TPC-H workloads
// against the program built from this checkout, every answer checked
// against a reference configuration, six gated end-to-end metrics and four
// wall-clock ones per workload, and a traced pass that splits the time by
// layer. README.md is the
// glossary; BENCHMARK.json at the repository root is the driver's view.
//
//	bash bench/run.sh --workload pushdown_cold --seed 42 --seconds 15 --trace 0
//	cd bench && go run .                      # every workload, table + JSON
//	cd bench && go run . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\" to run each one in a child process")
		seed     = flag.Int64("seed", 42, "seed of the TPC-H generator and the request stream")
		seconds  = flag.Float64("seconds", 15, "length of the measured run; every phase scales with it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		quick    = flag.Bool("quick", false, "SF 0.002 and a single set-up (the smoke test's shape)")
		outDir   = flag.String("out", "out", "directory for trace files and the all-workloads document")
		compare  = flag.Bool("compare", false, "compare two all-workloads documents: bench -compare a.json b.json")
	)
	flag.Parse()
	ctx := context.Background()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *workload == "all":
		ok, err := runAll(ctx, *seed, *seconds, *quick, *outDir)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		out, err := runWorkload(ctx, runConfig{
			workload: *workload, seed: *seed, seconds: *seconds,
			trace: *trace != 0, quick: *quick, outDir: *outDir,
		})
		if err != nil {
			fatal(err)
		}
		res := out.resultLine(*trace != 0)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
