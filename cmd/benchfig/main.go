// Command benchfig regenerates the paper's figures and prints them as
// tables.
//
//	benchfig                 # every figure but the ablations, at the default scale
//	benchfig -fig Fig5       # one figure
//	benchfig -ablations      # the Section-X extension ablations
//	benchfig -scale small    # faster, smaller datasets
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"pushdowndb/internal/harness"
)

func main() {
	var (
		scaleName = flag.String("scale", "default", "dataset scale: small or default")
		fig       = flag.String("fig", "", "single figure to run, by harness.Figures ID (Fig1..Fig11, Planner, Fig1-S1, ...); empty = all")
		ablations = flag.Bool("ablations", false, "run the Section-X extension ablations instead")
	)
	flag.Parse()

	// Ctrl-C cancels the run between (and, through the engine, inside)
	// figure sweeps instead of leaving a half-printed table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	scale := harness.DefaultScale()
	if *scaleName == "small" {
		scale = harness.SmallScale()
	}
	env := harness.NewEnv(scale)

	if *fig != "" {
		var ids []string
		for _, f := range harness.Figures {
			if f.ID == *fig {
				r, err := f.Run(ctx, env)
				if err != nil {
					fatal(err)
				}
				fmt.Println(r)
				return
			}
			ids = append(ids, f.ID)
		}
		fatal(fmt.Errorf("unknown figure %q (have %s)", *fig, strings.Join(ids, ", ")))
	}
	results, err := harness.RunFigures(ctx, env, *ablations)
	if err != nil {
		fatal(err)
	}
	for _, r := range results {
		fmt.Println(r)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchfig:", err)
	os.Exit(1)
}
