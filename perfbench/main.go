// Command perfbench is the repository's end-to-end benchmark. It starts the
// real rknn processes over a dataset it generates from its seed, drives them
// with an open-loop HTTP load, checks every answer against brute force, and
// prints each metric by name with its unit and sample count. The last line
// of its output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a traced
// run and an in-process replay produce the per-layer ledger instead. Each
// result is also written, with its run record, under
// .bench_build/perfbench/results/.
//
// Run it through run.sh, which builds rknn and this command from the
// checkout, once per workload (workloads.go):
//
//	bash perfbench/run.sh --workload fct-serve-read --seed 1 --seconds 24 --trace 0
//
// This directory is a module of its own, so the repository's go test ./...
// does not run the benchmark's tests; run them with
//
//	cd perfbench && go test .
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	if err := benchmark(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "seed for the dataset and the op stream")
		seconds = fs.Int("seconds", 24, "measured seconds: three quarters at the nominal rate, one quarter on the rate ladder")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
		bin     = fs.String("rknn", "", "path to the rknn binary under test")
		work    = fs.String("work", ".bench_build/perfbench", "directory for datasets, logs and result records")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := workloadByName(*name)
	if w == nil {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *bin == "" || *seconds < 2 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need -rknn, -seconds >= 2 and -trace 0 or 1")
	}
	if _, err := os.Stat(*bin); err != nil {
		return fmt.Errorf("rknn binary: %w", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A hung process must not hang the run: every request and wait below
	// takes this context, so the run fails in bounded time instead.
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	dir := filepath.Join(*work, fmt.Sprintf("%s-s%d-t%d", w.name, *seed, *traced))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r, err := newRun(w, *seed, *seconds, *bin, dir)
	if err != nil {
		return err
	}
	defer r.g.stopAll()

	var rep *report
	if *traced == 1 {
		rep, err = r.ledger(ctx)
	} else {
		rep, err = r.endToEnd(ctx)
	}
	if err != nil {
		return err
	}
	r.g.stopAll()
	rep.print(stdout, r.record())
	return rep.save(filepath.Join(*work, "results", filepath.Base(dir)+".json"), r.record())
}

// runDeadline bounds a whole run, builds excluded; a healthy run takes well
// under a minute.
const runDeadline = 150 * time.Second

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the contract metrics, the table-only
// figures, and the correctness verdict.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	table []string // human-readable lines printed before the JSON
	notes []string // reasons the run is not correct
}

func newReport() *report { return &report{Correct: true, Metrics: map[string]metric{}} }

func (rep *report) set(name, unit string, v float64) { rep.Metrics[name] = metric{v, unit} }

func (rep *report) line(format string, args ...any) {
	rep.table = append(rep.table, fmt.Sprintf(format, args...))
}

func (rep *report) fail(format string, args ...any) {
	rep.Correct = false
	rep.notes = append(rep.notes, fmt.Sprintf(format, args...))
}

func (rep *report) print(w io.Writer, rec record) {
	fmt.Fprintf(w, "run: %s seed=%d cpu=%q nproc=%d go=%s commit=%s\n",
		rec.Workload, rec.Seed, rec.CPU, rec.NProc, rec.GoVersion, rec.Commit)
	for _, l := range rep.table {
		fmt.Fprintln(w, l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "INCORRECT:", n)
	}
	b, _ := json.Marshal(rep) // a struct of plain fields always encodes
	fmt.Fprintln(w, string(b))
}

// save writes the result with its run record, outside the checked-in
// BENCH_*.json files.
func (rep *report) save(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(struct {
		Record record   `json:"record"`
		Result *report  `json:"result"`
		Table  []string `json:"table"`
		Notes  []string `json:"notes,omitempty"`
	}{rec, rep, rep.table, rep.notes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
