package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// document is what a run of every workload produces: the conditions it ran
// under and each workload's two result lines merged. -compare reads two.
type document struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`

	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult merges one workload's untraced and traced runs.
type workloadResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// runAll runs every workload twice, each run in a child process of its own
// because heap state leaks between workloads (the issue's probe saw
// baseline_local 15 % faster after other workloads than in a fresh
// process): once untraced for the end-to-end metrics, once traced for the
// per-layer ones — exactly the two runs the driver makes. It prints the
// table and the JSON document and writes the latter to outDir/run.json.
func runAll(ctx context.Context, seed int64, seconds float64, quick bool, outDir string) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	doc := &document{
		Seed: seed, Seconds: seconds, Quick: quick,
		Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(ctx),
		Workloads: map[string]*workloadResult{},
	}
	ok := true
	for _, w := range workloadDefs {
		wr := &workloadResult{Correct: true}
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", outDir,
			}
			if quick {
				args = append(args, "-quick")
			}
			fmt.Fprintf(os.Stderr, "bench: running %s (trace %d)\n", w.Name, trace)
			res, err := runChild(ctx, self, args)
			if err != nil {
				return false, fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			wr.Correct = wr.Correct && res.Correct
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if trace == 0 {
				wr.EndToEnd = res.Metrics
			} else {
				wr.PerLayer = res.Metrics
			}
		}
		ok = ok && wr.Correct
		doc.Workloads[w.Name] = wr
	}

	printTable(os.Stdout, doc)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	return ok, os.WriteFile(filepath.Join(outDir, "run.json"), append(out, '\n'), 0o644)
}

// runChild runs one workload in a child process and parses its result
// line. A child that reports wrong answers exits 1 after printing the
// line, so the line is parsed before the exit status is judged.
func runChild(ctx context.Context, self string, args []string) (runResult, error) {
	cmd := exec.CommandContext(ctx, self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// commit names the commit being measured, when the directory is a git
// checkout and git is installed; the driver's checkouts are neither.
func commit(ctx context.Context) string {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printTable prints every metric by name and unit, one column per
// workload, end-to-end first.
func printTable(w io.Writer, doc *document) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "seed %d, %g s, %s, GOMAXPROCS %d, commit %s\t\t", doc.Seed, doc.Seconds, doc.Go, doc.GOMAXPROCS, doc.Commit)
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wd := range workloadDefs {
		fmt.Fprintf(tw, "%s\t", wd.Name)
	}
	fmt.Fprintln(tw)
	row := func(name, unit string, cell func(*workloadResult) string) {
		fmt.Fprintf(tw, "%s\t%s\t", name, unit)
		for _, wd := range workloadDefs {
			fmt.Fprintf(tw, "%s\t", cell(doc.Workloads[wd.Name]))
		}
		fmt.Fprintln(tw)
	}
	row("failed/attempted", "count", func(r *workloadResult) string { return fmt.Sprintf("%d/%d", r.Failed, r.Attempted) })
	for _, d := range endToEnd {
		row(d.Name, d.Unit, func(r *workloadResult) string { return fmt.Sprintf("%.4g", r.EndToEnd[d.Name].Value) })
	}
	for _, d := range perLayer {
		row(d.Name, d.Unit, func(r *workloadResult) string { return fmt.Sprintf("%.4g", r.PerLayer[d.Name].Value) })
	}
	tw.Flush()
}
