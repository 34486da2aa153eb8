package adapter

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"repro/internal/alphabet"
	"repro/internal/docstream"
)

// eventSource is the Next half of Source, which the oracles implement.
type eventSource interface {
	Next() (docstream.Event, error)
}

// oracleAgrees is the scanner-versus-stdlib property: when the oracle
// decodes doc to a clean io.EOF the scanner must produce the identical
// events (kind, label and Sym) and end cleanly too; when the oracle rejects
// doc the scanner must return an error as well, with any message.
func oracleAgrees(t *testing.T, doc string, scan, oracle eventSource) {
	t.Helper()
	want, wantErr := drainAll(oracle)
	got, gotErr := drainAll(scan)
	if wantErr != nil {
		if gotErr == nil {
			t.Fatalf("oracle rejects %q (%v), scanner accepts it as %v", doc, wantErr, got)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("oracle accepts %q as %v, scanner fails: %v", doc, want, gotErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: scanner %d events %v, oracle %d events %v", doc, len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q event %d: scanner %+v, oracle %+v", doc, i, got[i], want[i])
		}
	}
}

// drainAll reads at most fuzzEventCap events, returning the error that ended
// the stream (nil for io.EOF).
func drainAll(src eventSource) ([]docstream.Event, error) {
	var events []docstream.Event
	for len(events) < fuzzEventCap {
		e, err := src.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
	return events, errors.New("event cap reached")
}

// oracleAlpha is a partial alphabet for the differential: structural labels
// are in it, most text is not.
var oracleAlpha = alphabet.New("object", "array", "a", "b", "library", "book", "title", "author",
	"main", "open", "close", "read", "write", "true", "null", "x")

// checkXMLOracle runs the XML differential with and without an alphabet.
func checkXMLOracle(t *testing.T, doc string) {
	t.Helper()
	for _, alpha := range []*alphabet.Alphabet{nil, oracleAlpha} {
		oracleAgrees(t, doc, newSource("xml", strings.NewReader(doc), alpha), newOracleXML(strings.NewReader(doc), alpha))
	}
}

func checkJSONOracle(t *testing.T, doc string) {
	t.Helper()
	for _, alpha := range []*alphabet.Alphabet{nil, oracleAlpha} {
		oracleAgrees(t, doc, newSource("json", strings.NewReader(doc), alpha), newOracleJSON(strings.NewReader(doc), alpha))
	}
}

func checkTraceOracle(t *testing.T, doc string) {
	t.Helper()
	for _, alpha := range []*alphabet.Alphabet{nil, oracleAlpha} {
		oracleAgrees(t, doc, newSource("trace", strings.NewReader(doc), alpha), newOracleTrace(strings.NewReader(doc), alpha))
	}
}

// e27Shaped returns small documents in the record shapes of the E27 corpus
// (and so of the adapter-docs benchmark workload).
func e27Shaped(format string, records int) string {
	var b strings.Builder
	switch format {
	case "xml":
		b.WriteString("<library>")
		for i := 0; i < records; i++ {
			fmt.Fprintf(&b, "<book><title>nested words %d</title><author>alur m</author></book>", i)
		}
		b.WriteString("</library>")
	case "json":
		b.WriteString("[")
		for i := 0; i < records; i++ {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"title": "nested-words", "year": %d, "open": true}`, 2007+i%7)
		}
		b.WriteString("]")
	case "trace":
		b.WriteString("enter main\n")
		for i := 0; i < records; i++ {
			fmt.Fprintf(&b, "enter open\nread %d\nwrite %d\nexit\n", i, i)
		}
		b.WriteString("exit main\n")
	}
	return b.String()
}

// oracleSeeds collects a format's seed corpus: the committed fixture, an
// E27-shaped document, and the given hand-picked cases.
func oracleSeeds(f *testing.F, format string, extra ...string) {
	paths, err := filepath.Glob("testdata/*." + format)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no .%s fixture: %v", format, err)
	}
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(body))
	}
	f.Add(e27Shaped(format, 3))
	for _, s := range extra {
		f.Add(s)
	}
}

// xmlOracleCases pin the corners where a byte scanner most easily drifts
// from encoding/xml; they seed the fuzz target and run as a table test.
var xmlOracleCases = []string{
	`<a x="1">text <b/></a>`,
	`<?xml version="1.0"?><a>&amp;</a>`,
	`<a><b></a>`,
	`plain text, no elements`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version='1.0' encoding="UTF-8"?><a/>`,
	`<?xml version="1.0" encoding="latin1"?><a/>`,
	`<?xml?><a/>`, `<?xml-stylesheet href="x"?><a/>`, `<?xml`, `<?>`,
	`<a:b></a:b>`, `<a:b></b>`, `<a:b:c/>`, `<:a></:a>`, `<a:></a:>`, `<a:b></c:b>`,
	`<x:a xmlns:x="u" y:z="1" xmlns="v"/>`,
	`<a>x<![CDATA[y <z> ]]>w</a>`, `<a><![CDATA[]]></a>`, `<a><![CDATA[x]]]></a>`, `<a><![CDATA[x`,
	`<a>x]]>y</a>`, `<a>]]&gt;</a>`, `<a>]&#93;></a>`, `<a x="]]>"/>`,
	`<a>x<!-- c -->y</a>`, `<a><!-- a--b --></a>`, `<a><!---></a>`, `<a><!----></a>`, `<!- x>`,
	`<!DOCTYPE a [<!ENTITY e "v"> <!-- c > --> ]><a/>`, `<!DOCTYPE a "x>"><a/>`, `<!>x>`, `<!a<>>b`,
	`<a>&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&#65;&#x42;&#0065;</a>`, `<a>&#xD800;</a>`, `<a>&#0;</a>`,
	`<a>&#x110000;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&nbsp;</a>`, `<a>&amp</a>`, `<a>&;</a>`, `<a>&`,
	`<a>&#32;x&#x85;y&#xA0;z</a>`, "<a>x y z</a>", "<a>\x01</a>", "<a>\xff</a>", "<a>\ufffe</a>",
	"<a x='a\r\nb\rc&#13;&#10;d\te'/>", `<a x="<"/>`, `<a x=1/>`, `<a x/>`, `<a x="1"y="2"/>`, `<a x = "1" />`,
	`<a x="&#65;&lt;"/>`, `<a x="1`, `<a`, `<a/`, `<a / >`, `</a>`, `<a></a >`, `<a></a x>`,
	`<1a/>`, `<-a/>`, `<a.b-c_d/>`, "<é/>", "<a·b/>", "<·a/>", "<a\xffb/>", `<a>`, `< a/>`,
	`<a>one</a><b>two</b> tail`, "\n<a>\r\n</a>\n", `<a>/x /</a>`, `<a>a<b/>c</a>`,
}

var jsonOracleCases = []string{
	`{"a": [1, true, null, "x"]}`, `[[[]]] "two" 3`, `{"a": }`, `12e999`,
	`{"a":1,}`, `[1,]`, `[,1]`, `{,}`, `{"a" "b"}`, `{"a":1 "b":2}`, `[1 2]`, `{1:2}`, `}`, `]`, `:`, `,`,
	`{"a"`, `{"a":`, `[1`, `[tru`, `[1,`, `{"a":[{"b":`, `"abc`, `"\`, `"\u12`, `-`, `1.`, `1e`, `1e+`,
	`01`, `-01`, `1x`, `truefalse`, `nullnull`, `1true`, `"a""b"`, `-0.5e-7`, `0E+1`, `1.5E3`, `+1`, `.5`,
	`"é\n\t\"\\\/\b\f\r"`, `"😀"`, `"\ud800"`, `"\ud800A"`, `"\udc00𐀀"`,
	`"\ud800𐀀"`, `"\ud800\x"`, `"\'"`, `"\u0000"`, "\"\xff\xfe\"", "\"\xe2\x80\"", "\"a\x01\"",
	`"a b<c>/d"`, `""`, `"/x"`, ` { } `, "\ufeff{}", `{"":""}`, `[true, false, null]`, `tRue`, `nul`,
	"[1,\n2,\r\n3\t]",
}

var traceOracleCases = []string{
	"enter main\nexit\n", "exit\nexit close\n# c\nread 1 2 3\n", "enter\nexit\n", "enter   \n",
	"enter a b c\nexit x y\n", "  # not a field\n#x\n", "a\tb\r\nc d\n", "enter <x>\nexit\n",
	"enter /x\nexit\nexit\n", "x\xffy\n", "enter \xe2\x80\nexit\n", "\n\n\n", "last line without newline",
	"enter f", "exit", "#", "  ", "enter\n", "exit   \n",
}

func TestXMLScannerOracleCases(t *testing.T) {
	for _, doc := range xmlOracleCases {
		checkXMLOracle(t, doc)
	}
	checkXMLOracle(t, e27Shaped("xml", 5))
}

func TestJSONScannerOracleCases(t *testing.T) {
	for _, doc := range jsonOracleCases {
		checkJSONOracle(t, doc)
	}
	checkJSONOracle(t, e27Shaped("json", 5))
}

func TestTraceScannerOracleCases(t *testing.T) {
	for _, doc := range traceOracleCases {
		checkTraceOracle(t, doc)
	}
	checkTraceOracle(t, e27Shaped("trace", 5))
}

func FuzzXMLScannerOracle(f *testing.F) {
	oracleSeeds(f, "xml", xmlOracleCases...)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		checkXMLOracle(t, doc)
	})
}

func FuzzJSONScannerOracle(f *testing.F) {
	oracleSeeds(f, "json", jsonOracleCases...)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		checkJSONOracle(t, doc)
	})
}

func FuzzTraceScannerOracle(f *testing.F) {
	oracleSeeds(f, "trace", traceOracleCases...)
	f.Fuzz(func(t *testing.T, doc string) {
		if len(doc) > 1<<12 {
			return
		}
		checkTraceOracle(t, doc)
	})
}

// TestXMLNameTablesMatchStdlib checks the copied name character classes
// against encoding/xml itself: a non-ASCII rune starts a name exactly when
// the stdlib accepts <R/>, and continues one exactly when it accepts <aR/>.
func TestXMLNameTablesMatchStdlib(t *testing.T) {
	accepts := func(doc string) bool {
		_, err := drainAll(newOracleXML(strings.NewReader(doc), nil))
		return err == nil
	}
	for r := rune(0x80); r <= unicode.MaxRune; r++ {
		if r > 0xFFFF {
			r += 96 // sample the supplementary planes
		}
		if !utf8.ValidRune(r) {
			continue
		}
		s := string(r)
		if got, want := isName([]byte(s)), accepts("<"+s+"/>"); got != want {
			t.Fatalf("%U as a name start: scanner %v, encoding/xml %v", r, got, want)
		}
		if got, want := isName([]byte("a"+s)), accepts("<a"+s+"/>"); got != want {
			t.Fatalf("%U inside a name: scanner %v, encoding/xml %v", r, got, want)
		}
	}
}

// TestJSONSeparatorErrorsMatchStdlib pins that misplaced commas, colons and
// delimiters are reported in Decoder.Token's own words.
func TestJSONSeparatorErrorsMatchStdlib(t *testing.T) {
	for _, doc := range []string{`[1 2]`, `{"a" 1}`, `{"a":1 "b":2}`, `[1,]`, `{"a":1,}`, `{,}`, `[,1]`,
		`:`, `,`, `}`, `{"a"]`, `[1}`, `{1:2}`, `{"a"::1}`, `[1,,2]`} {
		_, want := drainAll(newOracleJSON(strings.NewReader(doc), nil))
		_, got := drainAll(newSource("json", strings.NewReader(doc), nil))
		var se *syntaxError
		if want == nil || !errors.As(got, &se) {
			t.Fatalf("%q: scanner %v, oracle %v", doc, got, want)
		}
		if se.Msg != want.Error() {
			t.Errorf("%q: scanner says %q, encoding/json %q", doc, se.Msg, want.Error())
		}
	}
}

// TestTraceLineLimit pins the line bound at the oracle's: a line one byte
// short of maxTraceLine decodes, a line of maxTraceLine bytes is a
// *syntaxError where bufio.Scanner said ErrTooLong.
func TestTraceLineLimit(t *testing.T) {
	for _, n := range []int{maxTraceLine - 1, maxTraceLine} {
		for _, tail := range []string{"", "\nenter main\n"} {
			doc := "enter f\n" + strings.Repeat("x", n) + tail
			_, oracleErr := drainAll(newOracleTrace(strings.NewReader(doc), nil))
			_, err := drainAll(newSource("trace", strings.NewReader(doc), nil))
			var se *syntaxError
			if tooLong := n >= maxTraceLine; tooLong != errors.Is(oracleErr, bufio.ErrTooLong) ||
				tooLong != errors.As(err, &se) || !tooLong && err != nil {
				t.Errorf("%d-byte line%q: scanner %v, oracle %v", n, tail, err, oracleErr)
			}
		}
	}
}
