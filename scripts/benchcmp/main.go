// Command benchcmp is the benchmark-regression gate: it compares two
// directories of BENCH_<ID>.json files (the machine-readable experiment
// tables cmd/nwbench -json writes for the experiments.Registry entries
// marked Artifact) and fails when the fresh run regresses past a threshold
// against the previous one, or when a fresh row's verdicts disagree with
// its experiment's oracle.
//
// Usage:
//
//	benchcmp -old PREV_DIR -new FRESH_DIR [-threshold 2.0]
//
// For every experiment present in both directories it compares
//
//   - wall_ns, the wall clock of regenerating the whole table, and
//   - every timing cell — a column whose header carries a time unit
//     ("ns/ev", "compile µs", ...) — of every row, matched across runs by
//     the row's first (key) column;
//
// and reports any new/old ratio above the threshold (default 2.0×, wide
// enough for CI scheduling noise).  Every fresh row whose "agree" cell is
// not "true" is a failure too, whether or not it has a baseline.  Rows or
// experiments present on only one side are reported as informational
// skips, never failures, so adding or retiring an experiment or a row does
// not break the gate.  Exit status is 1 when any regression or
// disagreement is found, 2 on usage or read errors, 0 otherwise.
//
// CI runs it in the bench-json job against the previous run's artifacts
// (falling back to the BENCH_*.json copies committed at the repository
// root); run it locally the same way:
//
//	go run ./cmd/nwbench -quick -json fresh
//	go run ./scripts/benchcmp -old . -new fresh
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// record mirrors the BENCH_<ID>.json schema of cmd/nwbench (the fields the
// comparison needs).
type record struct {
	ID     string     `json:"id"`
	WallNS int64      `json:"wall_ns"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// timingColumn reports whether a header names a wall-clock column — the
// only columns whose ratios the gate judges (counts and speedups are
// informational; the agree column is checked on its own).
func timingColumn(header string) bool {
	h := strings.ToLower(header)
	for _, unit := range []string{"ns", "µs", "us/", " us", "ms"} {
		if strings.Contains(h, unit) {
			return true
		}
	}
	return false
}

// loadDir reads every BENCH_*.json in dir, keyed by file base name.
func loadDir(dir string) (map[string]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]record{}
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[filepath.Base(p)] = r
	}
	return out, nil
}

// rowKey is the row's first column — the sweep variable (queries, shards,
// states) the rows of one experiment are matched on across runs.
func rowKey(row []string) string {
	if len(row) == 0 {
		return ""
	}
	return row[0]
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams; it returns the
// exit status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("benchcmp", flag.ContinueOnError)
	flags.SetOutput(stderr)
	oldDir := flags.String("old", "", "directory of previous BENCH_*.json files (the baseline)")
	newDir := flags.String("new", "", "directory of fresh BENCH_*.json files (the run under test)")
	threshold := flags.Float64("threshold", 2.0, "fail when new/old exceeds this ratio on wall_ns or any timing cell")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *oldDir == "" || *newDir == "" {
		fmt.Fprintln(stderr, "usage: benchcmp -old PREV_DIR -new FRESH_DIR [-threshold 2.0]")
		return 2
	}

	oldRecs, err := loadDir(*oldDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	newRecs, err := loadDir(*newDir)
	if err != nil {
		fmt.Fprintln(stderr, "benchcmp:", err)
		return 2
	}
	if len(newRecs) == 0 {
		fmt.Fprintf(stderr, "benchcmp: no BENCH_*.json files in %s\n", *newDir)
		return 2
	}

	for _, name := range slices.Sorted(maps.Keys(oldRecs)) {
		if _, ok := newRecs[name]; !ok {
			fmt.Fprintf(stdout, "%-18s baseline only, not in the fresh run — skipped\n", oldRecs[name].ID)
		}
	}

	var failures []string
	compared := 0
	for _, name := range slices.Sorted(maps.Keys(newRecs)) {
		fresh := newRecs[name]
		if agree := slices.Index(fresh.Header, "agree"); agree >= 0 {
			for _, row := range fresh.Rows {
				if agree >= len(row) || row[agree] != "true" {
					failures = append(failures,
						fmt.Sprintf("%s row %q: verdicts disagree with the oracle (agree is not true)", fresh.ID, rowKey(row)))
				}
			}
		}
		prev, ok := oldRecs[name]
		if !ok {
			fmt.Fprintf(stdout, "%-18s new experiment, no baseline — skipped\n", fresh.ID)
			continue
		}
		compared++
		if prev.WallNS > 0 {
			ratio := float64(fresh.WallNS) / float64(prev.WallNS)
			fmt.Fprintf(stdout, "%-18s wall %8.2fms -> %8.2fms  (%.2fx)\n",
				fresh.ID, float64(prev.WallNS)/1e6, float64(fresh.WallNS)/1e6, ratio)
			if ratio > *threshold {
				failures = append(failures,
					fmt.Sprintf("%s: wall_ns %.2fx (%d -> %d ns)", fresh.ID, ratio, prev.WallNS, fresh.WallNS))
			}
		}
		prevRows := map[string][]string{}
		for _, row := range prev.Rows {
			prevRows[rowKey(row)] = row
		}
		for _, row := range fresh.Rows {
			base, ok := prevRows[rowKey(row)]
			if !ok {
				fmt.Fprintf(stdout, "%-18s row %q has no baseline — skipped\n", fresh.ID, rowKey(row))
				continue
			}
			for col, header := range fresh.Header {
				if !timingColumn(header) || col >= len(row) || col >= len(base) {
					continue
				}
				newVal, err1 := strconv.ParseFloat(row[col], 64)
				oldVal, err2 := strconv.ParseFloat(base[col], 64)
				if err1 != nil || err2 != nil || oldVal <= 0 {
					continue
				}
				if ratio := newVal / oldVal; ratio > *threshold {
					failures = append(failures,
						fmt.Sprintf("%s row %q: %q %.3g -> %.3g (%.2fx)",
							fresh.ID, rowKey(row), header, oldVal, newVal, ratio))
				}
			}
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(stdout, "\nbenchcmp: %d failures (regressions past %.1fx or disagreeing rows):\n", len(failures), *threshold)
		for _, r := range failures {
			fmt.Fprintln(stdout, "  "+r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchcmp: ok (%d experiments compared, threshold %.1fx)\n", compared, *threshold)
	return 0
}
