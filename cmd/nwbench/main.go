// Command nwbench regenerates every experiment table of docs/EXPERIMENTS.md
// — one per theorem, lemma, or figure of "Marrying Words and Trees", plus
// the engineering experiments of the serving stack — and prints them with
// wall-clock timings.  The same computations, at the same full parameters,
// are the sub-benchmarks of BenchmarkExperiments in the repository root
// (go test -bench=.).  Run with -list to print the
// one-line summary of each experiment instead of computing anything, and
// with -json DIR to additionally write one machine-readable BENCH_<ID>.json
// file per serving-stack experiment (the experiments.Registry entries marked
// Artifact) — the per-PR perf trajectory CI uploads as a workflow artifact
// and guards with the scripts/benchcmp regression gate.  Which experiments
// run, at which parameters, comes from experiments.Registry: -quick runs
// each entry's Quick function and skips the entries without one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
)

// benchRecord is the schema of one BENCH_<ID>.json file: the experiment's
// identity, the environment, the wall-clock of the regeneration, and the
// full table both raw (header + rows) and as one object per row keyed by
// the header — so ns/op columns, alloc columns, and shard/query counts are
// addressable by name without re-parsing the fixed-width text table.
type benchRecord struct {
	ID         string              `json:"id"`
	Name       string              `json:"name"`
	Summary    string              `json:"summary"`
	GoVersion  string              `json:"go_version"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	UnixTime   int64               `json:"unix_time"`
	WallNS     int64               `json:"wall_ns"`
	Header     []string            `json:"header"`
	Rows       [][]string          `json:"rows"`
	Metrics    []map[string]string `json:"metrics"`
}

func writeBenchJSON(dir string, e experiments.Experiment, table experiments.Table, wall time.Duration) error {
	rec := benchRecord{
		ID:         e.ID,
		Name:       table.Name,
		Summary:    e.Summary,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		UnixTime:   time.Now().Unix(),
		WallNS:     wall.Nanoseconds(),
		Header:     table.Header,
		Rows:       table.Rows,
	}
	for _, row := range table.Rows {
		m := map[string]string{}
		for i, cell := range row {
			if i < len(table.Header) {
				m[table.Header[i]] = cell
			}
		}
		rec.Metrics = append(rec.Metrics, m)
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+e.ID+".json"), append(body, '\n'), 0o644)
}

func main() {
	quick := flag.Bool("quick", false, "use smaller parameter ranges for a fast smoke run")
	list := flag.Bool("list", false, "print one line per experiment (the docs/EXPERIMENTS.md summaries) and exit")
	jsonDir := flag.String("json", "", "write BENCH_<ID>.json files for the serving-stack experiments into this directory")
	flag.Parse()

	if *list {
		for _, e := range experiments.Registry {
			fmt.Printf("%-5s %s\n", e.ID, e.Summary)
		}
		return
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "nwbench:", err)
			os.Exit(1)
		}
	}

	start := time.Now()
	for _, e := range experiments.Registry {
		run := e.Run
		if *quick {
			run = e.Quick
		}
		if run == nil {
			continue
		}
		t0 := time.Now()
		table := run()
		wall := time.Since(t0)
		fmt.Println(table)
		fmt.Printf("(%s regenerated in %v)\n\n", e.ID, wall.Round(time.Millisecond))
		if *jsonDir != "" && e.Artifact {
			if err := writeBenchJSON(*jsonDir, e, table, wall); err != nil {
				fmt.Fprintln(os.Stderr, "nwbench:", err)
				os.Exit(1)
			}
		}
	}
	fmt.Printf("total: %v\n", time.Since(start).Round(time.Millisecond))
}
