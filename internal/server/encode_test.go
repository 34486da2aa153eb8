package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/engine"
	"repro/internal/serve"
)

// batchResult is one NDJSON response line as encoding/json writes it: a
// DocumentResult on success, or the input ID with an error string when
// that document failed.  It is the encoder oracle's target and the type
// tests decode batch responses into.
type batchResult struct {
	DocumentResult
	Error string `json:"error,omitempty"`
}

// encodeOracle is what json.NewEncoder(w).Encode writes for v.
func encodeOracle(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkVerdictEncoder holds the verdict encoder to encoding/json on one
// result, as a /v1/documents body and as a /v1/batch success line, and on
// the batch error line for the same ID and msg.  names must be distinct.
func checkVerdictEncoder(t *testing.T, names []string, id string, shard, events, depth int, bits uint64, msg string) {
	t.Helper()
	res := serve.Result{ID: id, Shard: shard, Engine: &engine.Result{Verdicts: make([]bool, len(names)), Events: events, MaxDepth: depth}}
	doc := DocumentResult{ID: id, Shard: shard, Events: events, MaxDepth: depth, Verdicts: make(map[string]bool, len(names))}
	for i, name := range names {
		res.Engine.Verdicts[i] = bits>>(i%64)&1 == 1
		doc.Verdicts[name] = res.Engine.Verdicts[i]
	}
	table := newVerdictTable(names)
	got := table.appendResult(nil, res)
	if want := encodeOracle(t, doc); !bytes.Equal(got, want) {
		t.Fatalf("verdict line:\n got %q\nwant %q", got, want)
	}
	if want := encodeOracle(t, batchResult{DocumentResult: doc}); !bytes.Equal(got, want) {
		t.Fatalf("batch verdict line:\n got %q\nwant %q", got, want)
	}
	got = appendError(nil, id, msg)
	if want := encodeOracle(t, batchResult{DocumentResult: DocumentResult{ID: id}, Error: msg}); !bytes.Equal(got, want) {
		t.Fatalf("batch error line:\n got %q\nwant %q", got, want)
	}
}

// escapeCases need every escaping rule encoding/json's Encoder applies.
var escapeCases = []string{
	"", "plain", "doc-17", "<a>&</a>", `quote " and \ backslash`,
	"\x00\x01\x1f\x7f", "\b\f\n\r\t", "line\u2028para\u2029end",
	"\xff", "a\xc3", "\xed\xa0\x80", "\u00e9 \U0001f600 \U0010ffff", "\ufffd", "/slash/",
}

// TestVerdictEncoderOracle checks the encoder against encoding/json on
// names and IDs that need escaping, names out of byte order, an empty
// bundle, and both error-line shapes (with and without an error string).
func TestVerdictEncoderOracle(t *testing.T) {
	nameSets := [][]string{
		nil,
		{"well-formed"},
		{"well-formed", "order(a<b)", "path(a/c)"},
		{"b", "a", "B", "_", "é", "\xff", "<", "&", ""},
		escapeCases,
	}
	for _, names := range nameSets {
		for _, id := range escapeCases {
			for _, bits := range []uint64{0, 1, 0x5555, ^uint64(0)} {
				checkVerdictEncoder(t, names, id, 3, 20000, 17, bits, "tokenize: "+id)
			}
		}
	}
	checkVerdictEncoder(t, nil, "x", 0, 0, 0, 0, "")
}

// FuzzVerdictEncoder holds the encoder to encoding/json on arbitrary IDs,
// query names and error strings.
func FuzzVerdictEncoder(f *testing.F) {
	for i, s := range escapeCases {
		f.Add(s, escapeCases[(i+1)%len(escapeCases)], "q", s, i, 40*i, i%8, uint64(i))
	}
	f.Fuzz(func(t *testing.T, id, name1, name2, msg string, shard, events, depth int, bits uint64) {
		names := []string{name1, name2, "well-formed"}
		if name1 == name2 || name1 == "well-formed" || name2 == "well-formed" {
			names = []string{name1}
		}
		checkVerdictEncoder(t, names, id, shard, events, depth, bits, msg)
	})
}

// TestAppendResultAllocs pins the verdict encoder allocation-free into a
// warm buffer, on an ID and names that need escaping.
func TestAppendResultAllocs(t *testing.T) {
	table := newVerdictTable([]string{"path(a/c)", "order(a<b)", "well-formed"})
	res := serve.Result{ID: "doc <1>", Shard: 1, Engine: &engine.Result{Verdicts: []bool{true, false, true}, Events: 40, MaxDepth: 3}}
	buf := table.appendResult(nil, res)
	allocs := testing.AllocsPerRun(100, func() {
		buf = table.appendResult(buf[:0], res)
	})
	if allocs != 0 {
		t.Errorf("appendResult: %v allocs/op, want 0", allocs)
	}
}
