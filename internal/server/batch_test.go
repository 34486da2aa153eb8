package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// batchLine is one NDJSON request line for POST /v1/batch, as
// encoding/json sees it: the decode target decodeBatchLine must agree
// with, and the encode target tests build batch requests from.
type batchLine struct {
	ID     string `json:"id"`
	Doc    string `json:"doc"`
	Format string `json:"format,omitempty"`
}

// batchLineSeeds cover each rule decodeBatchLine shares with
// json.Unmarshal: case-folded, duplicate and unknown keys, null, values of
// the wrong type, escapes, surrogates, invalid UTF-8, and syntax errors.
var batchLineSeeds = []string{
	`{"id":"a","doc":"<a> t </a>"}`,
	`{"id":"a","doc":"<a> t </a>","format":"xml"}`,
	` { "id" : "a" , "doc" : "x" } `,
	"{\"id\":\"a\",\n\t\"doc\":\"x\"}\r\n",
	`null`, ` null `, `nul`, `nullx`, `null null`,
	`{}`, `{ }`, `[]`, `"str"`, `123`, `true`, ``, ` `, `{`, `}`,
	`{"ID":"x","Doc":"y","FORMAT":"json"}`,
	`{"iD":"x","dOc":"y","fOrMaT":"trace"}`,
	`{"id":"first","id":"second"}`,
	`{"id":"first","id":null}`,
	`{"id":"first","ID":"second","Id":null}`,
	`{"doc":null,"format":null,"id":null}`,
	`{"id":1}`, `{"doc":true}`, `{"format":{}}`, `{"id":[]}`, `{"doc":false}`, `{"id":-1.5}`,
	`{"extra":{"a":[1,2,{"b":null}],"c":"\u00e9"},"id":"x"}`,
	`{"extra":-0.5e+10,"id":"x"}`, `{"extra":0,"doc":"y"}`, `{"extra":1E9}`,
	`{"extra":01}`, `{"extra":1.}`, `{"extra":-}`, `{"extra":.5}`, `{"extra":1e}`, `{"extra":+1}`,
	`{"extra":tru}`, `{"extra":nan}`, `{"extra":[1,]}`, `{"extra":[,1]}`, `{"extra":{"a"}}`, `{"extra":{1:2}}`,
	`{"extra":[[[[[]]]]],"id":"deep"}`, `{"extra":[}`, `{"extra":{]}`,
	`{"doc":"\u003ca\u003e t \u003c/a\u003e"}`, `{"doc":"<a> t </a>"}`,
	`{"doc":"\ud83d\ude00"}`, `{"doc":"\ud83d"}`, `{"doc":"\ude00"}`, `{"doc":"\ud83d\u0041"}`, `{"doc":"\uD83D\uDE00"}`,
	`{"doc":"\ud83dx"}`, `{"doc":"\ud83d\ud83d\ude00"}`, `{"doc":"\ud83d\ude00\udbff\udfff"}`, `{"doc":"\u0000"}`, `{"doc":"\ud83d\\ude00"}`,
	`{"doc":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"doc":"\x"}`, `{"doc":"\u12"}`, `{"doc":"\u12G4"}`, `{"doc":"\"}`, `{"doc":"abc`,
	"{\"doc\":\"a\tb\"}", "{\"doc\":\"a\x00b\"}", "{\"doc\":\"a\x7fb\"}",
	"{\"doc\":\"\xff\"}", "{\"doc\":\"a\xc3\"}", "{\"doc\":\"\xed\xa0\x80\"}",
	"{\"id\":\"\xff\xfe\",\"doc\":\"\xffx\\u00e9\xff\\n\"}",
	"{\"doc\":\"\xff\\ud83d\\ude00\xff\",\"format\":\"\xe2\x82\"}",
	"{\"id\":\"\xf0\x9f\x98\x80\",\"doc\":\"\xc3\xa9\"}",
	"{\"\xff\":\"x\"}",
	`{"\u0069d":"x"}`, `{"\u0130d":"x"}`, `{"\u0131d":"x"}`, `{"\u212a":"x"}`, `{"\u017f":"x"}`, `{"\ud83d":"x"}`,
	`{"İd":"x"}`, "{\"ıd\":\"x\"}", "{\"K\":\"x\"}", "{\"ſ\":\"x\"}",
	`{"id":"x","dOc":"y"}`,
	`{"id":"x",}`, `{"id" "x"}`, `{"id":"x"`, `{"id":"x"}}`, `{"id":"x"} x`, `{,}`, `{"id":"x",,"doc":"y"}`,
	`{"id":"x"}{"id":"y"}`, `{"id":"x"}]`, `{id:"x"}`, `{'id':'x'}`,
	"\xef\xbb\xbf{\"id\":\"bom\"}",
}

// checkBatchLine holds decodeBatchLine to json.Unmarshal on one input:
// both accept or both reject it, and on accept they agree on all three
// fields.  The decoder runs on a copy whose spare capacity holds junk, so
// the test also sees it write grown strings past the line's end.
func checkBatchLine(t *testing.T, line []byte) {
	t.Helper()
	var want batchLine
	wantErr := json.Unmarshal(line, &want)

	buf := make([]byte, len(line), 2*len(line)+8)
	copy(buf, line)
	for i := len(buf); i < cap(buf); i++ {
		buf[:cap(buf)][i] = '"'
	}
	fields, err := decodeBatchLine(buf)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("line %q: decoder error %v, encoding/json error %v", line, err, wantErr)
	}
	if err != nil {
		return
	}
	got := batchLine{ID: string(fields[fieldID]), Doc: string(fields[fieldDoc]), Format: string(fields[fieldFormat])}
	if got != want {
		t.Fatalf("line %q: decoder %+q, encoding/json %+q", line, got, want)
	}
}

// TestBatchLineOracle checks the seed lines against encoding/json.
func TestBatchLineOracle(t *testing.T) {
	for _, line := range batchLineSeeds {
		checkBatchLine(t, []byte(line))
	}
}

// TestBatchLineNesting pins encoding/json's nesting limit: an unknown
// field may nest arrays up to 10000 levels counting the line object, and
// no deeper.
func TestBatchLineNesting(t *testing.T) {
	for _, depth := range []int{maxNesting - 1, maxNesting} {
		line := `{"extra":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"id":"x"}`
		_, err := decodeBatchLine([]byte(line))
		if ok := depth < maxNesting; (err == nil) != ok {
			t.Errorf("%d nested arrays: error %v", depth, err)
		}
		checkBatchLine(t, []byte(line))
	}
}

// FuzzBatchLine holds decodeBatchLine to json.Unmarshal into batchLine on
// arbitrary bytes.
func FuzzBatchLine(f *testing.F) {
	for _, line := range batchLineSeeds {
		f.Add([]byte(line))
	}
	f.Fuzz(checkBatchLine)
}

// TestDecodeBatchLineAllocs pins the decoder allocation-free on a line
// whose document needs in-place unescaping.
func TestDecodeBatchLineAllocs(t *testing.T) {
	line := []byte(`{"id":"doc-1","doc":"\u003ca>\n\t<b> x \u00e9 \ud83d\ude00 </b>\n</a>","format":"xml","extra":[1,{"k":null}]}`)
	buf := make([]byte, len(line))
	allocs := testing.AllocsPerRun(100, func() {
		copy(buf, line)
		fields, err := decodeBatchLine(buf)
		if err != nil || !bytes.HasPrefix(fields[fieldDoc], []byte("<a>\n\t<b>")) {
			t.Fatalf("decode: %q %v", fields, err)
		}
	})
	if allocs != 0 {
		t.Errorf("decodeBatchLine: %v allocs/op, want 0", allocs)
	}
}
