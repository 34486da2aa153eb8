package adapter

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestZZSlow(t *testing.T) {
	files, _ := filepath.Glob("/root/.cache/go-build/fuzz/repro/internal/adapter/FuzzJSONScannerOracle/*")
	for _, f := range files {
		b, _ := os.ReadFile(f)
		lines := strings.SplitN(string(b), "\n", 3)
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			t.Fatal(err, lines[1])
		}
		t0 := time.Now()
		checkJSONOracle(t, s)
		if d := time.Since(t0); d > 5*time.Millisecond {
			t.Logf("%v %d bytes %q", d, len(s), s[:min(len(s), 80)])
		}
	}
}
