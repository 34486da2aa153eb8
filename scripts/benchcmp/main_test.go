package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecord writes rec as BENCH_<ID>.json into dir.
func writeRecord(t *testing.T, dir string, rec record) {
	t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCH_"+rec.ID+".json"), body, 0o644); err != nil {
		t.Fatal(err)
	}
}

// e21 builds an E21-shaped record whose 8-query row has the given
// fan-out timing and agree cell.
func e21(fanoutNS, agree string) record {
	return record{
		ID:     "E21",
		WallNS: 1_000_000,
		Header: []string{"queries", "fan-out ns/ev", "speedup", "agree"},
		Rows: [][]string{
			{"1", "20", "1.0", "true"},
			{"8", fanoutNS, "5.1", agree},
		},
	}
}

// e26 is a record only the baseline directory holds, as the previous main
// run's artifact does after an experiment is retired.
var e26 = record{
	ID:     "E26",
	WallNS: 2_000_000,
	Header: []string{"shards", "http p99 µs", "agree"},
	Rows:   [][]string{{"1", "900", "true"}},
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, new []record
		want     int
		output   string
	}{
		{"identical directories pass", []record{e21("100", "true")}, []record{e21("100", "true")}, 0, "benchcmp: ok (1 experiments compared"},
		{"2.1x timing cell fails at 2.0", []record{e21("100", "true")}, []record{e21("210", "true")}, 1, `E21 row "8": "fan-out ns/ev" 100 -> 210 (2.10x)`},
		{"1.9x timing cell passes at 2.0", []record{e21("100", "true")}, []record{e21("190", "true")}, 0, "benchcmp: ok"},
		{"agree=false fails", []record{e21("100", "true")}, []record{e21("100", "false")}, 1, `E21 row "8": verdicts disagree`},
		{"agree=false without a baseline fails", nil, []record{e21("100", "false")}, 1, `E21 row "8": verdicts disagree`},
		{"baseline-only experiment passes", []record{e21("100", "true"), e26}, []record{e21("100", "true")}, 0, "baseline only, not in the fresh run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldDir, newDir := t.TempDir(), t.TempDir()
			for _, r := range tc.old {
				writeRecord(t, oldDir, r)
			}
			for _, r := range tc.new {
				writeRecord(t, newDir, r)
			}
			var stdout, stderr strings.Builder
			got := run([]string{"-old", oldDir, "-new", newDir, "-threshold", "2.0"}, &stdout, &stderr)
			if got != tc.want {
				t.Errorf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", got, tc.want, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.output) {
				t.Errorf("stdout lacks %q:\n%s", tc.output, stdout.String())
			}
		})
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if got := run(nil, &stdout, &stderr); got != 2 {
		t.Errorf("no flags: exit %d, want 2", got)
	}
	if got := run([]string{"-old", t.TempDir(), "-new", t.TempDir()}, &stdout, &stderr); got != 2 {
		t.Errorf("empty fresh directory: exit %d, want 2", got)
	}
}
