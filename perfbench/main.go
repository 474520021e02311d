// Command perfbench is the repository benchmark: three open-loop workloads
// (ndvi-frames, roi-monitor, history-catchup) against an in-process
// dsms.Server, each result checked against a reference the benchmark
// computes itself. See README.md for the workloads, metrics and the
// layer → end-to-end map.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench -workload ndvi-frames -seed 1 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. -trace 0 reports the end-to-end
// metrics; -trace 1 runs the separate traced run and reports the
// per-layer metrics. A human-readable summary goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// report is the benchmark's result line.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "ndvi-frames | roi-monitor | history-catchup")
	seed := flag.Int64("seed", 1, "workload seed (scene, tiles, popularity, churn)")
	seconds := flag.Int("seconds", 30, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "scratch directory for stores and span files")
	flag.Parse()
	if flag.NArg() != 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	scratch, err := os.MkdirTemp(absDir(*dir), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep, err := run(context.Background(), w, config{
		seed: *seed, seconds: *seconds, traced: *traced == 1, dir: scratch,
		spanDir: filepath.Join(absDir(*dir), "spans"),
	})
	os.RemoveAll(scratch) //nolint:errcheck
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func absDir(d string) string {
	if err := os.MkdirAll(d, 0o755); err != nil {
		return d
	}
	if a, err := filepath.Abs(d); err == nil {
		return a
	}
	return d
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "ndvi-frames":
		return &ndviFrames{}, nil
	case "roi-monitor":
		return &roiMonitor{}, nil
	case "history-catchup":
		return &historyCatchup{}, nil
	}
	return nil, errors.New("unknown workload " + fmt.Sprintf("%q", name) +
		" (want ndvi-frames, roi-monitor or history-catchup)")
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	traced  bool
	dir     string // scratch directory, removed at exit
	spanDir string // where the traced run writes its spans
}
