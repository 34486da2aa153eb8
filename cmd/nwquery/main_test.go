package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv, when set, makes the test binary run nwquery's main instead of
// the tests, so a test can drive the real command line in a child process.
const mainEnv = "NWQUERY_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runNWQuery runs nwquery with args on stdin and returns its stdout and
// stderr; it fails the test if the command exits non-zero.
func runNWQuery(t *testing.T, stdin string, args ...string) (string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("nwquery %v: %v\nstderr: %s", args, err, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestUnknownLabelSummary streams an XML document with -labels and checks
// the stderr summary of out-of-alphabet traffic: the event total, the
// distinct-label count, and each label spelled with its count, most
// frequent first and ties in label order.
func TestUnknownLabelSummary(t *testing.T) {
	doc := `<?xml version="1.0"?><library><book><title>nested words</title>` +
		`<author>alur</author><isbn>42</isbn></book><book/><!-- c --></library>`
	stdout, stderr := runNWQuery(t, doc,
		"-format", "xml", "-labels", "library,book,title,author", "-dsl", "contains title")
	if !strings.Contains(stdout, "document: 16 events, max open elements 3") {
		t.Errorf("stdout lacks the document line:\n%s", stdout)
	}
	want := `nwquery: warning: 6 events carried 5 distinct labels missing from -labels ` +
		`("isbn"×2, "42"×1, "alur"×1, "nested"×1, "words"×1); ` +
		"queries treat them as out-of-alphabet and reject\n"
	if stderr != want {
		t.Errorf("stderr:\n got %q\nwant %q", stderr, want)
	}

	// A document whose labels all lie in -labels prints no summary.
	_, stderr = runNWQuery(t, "<library><book></book></library>",
		"-format", "xml", "-labels", "library,book", "-dsl", "contains book")
	if stderr != "" {
		t.Errorf("all-in-alphabet document: stderr %q, want none", stderr)
	}
}
