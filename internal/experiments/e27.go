package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/query/dsl"
)

// e27Alphabet covers the structural labels of the synthetic corpora but not
// their text tokens, so every decode exercises both the in-alphabet and the
// out-of-alphabet interning paths.
func e27Alphabet() *alphabet.Alphabet {
	return alphabet.New("library", "book", "title", "author",
		"object", "array", "main", "open", "close", "read", "write")
}

// e27Corpus synthesizes one document per adapter format, each a repetition of
// a small record shape scaled so the three bodies decode to roughly the same
// number of events — the decode work is comparable even though the byte
// syntaxes are not.
func e27Corpus(events int) map[string]string {
	// Events per record: XML 10 (2 calls, 2 returns, 6 internals), JSON 8
	// (object braces plus three key/value pairs), trace 6 (enter/exit plus
	// two two-token internal lines).
	var xml, json, trace strings.Builder
	xml.WriteString("<library>")
	for i := 0; i < events/10; i++ {
		fmt.Fprintf(&xml, "<book><title>nested words %d</title><author>alur m</author></book>", i)
	}
	xml.WriteString("</library>")
	json.WriteString("[")
	for i := 0; i < events/8; i++ {
		if i > 0 {
			json.WriteString(",")
		}
		fmt.Fprintf(&json, `{"title": "nested-words", "year": %d, "open": true}`, 2007+i%7)
	}
	json.WriteString("]")
	trace.WriteString("enter main\n")
	for i := 0; i < events/6; i++ {
		fmt.Fprintf(&trace, "enter open\nread %d\nwrite %d\nexit\n", i, i)
	}
	trace.WriteString("exit main\n")
	return map[string]string{
		"xml":   xml.String(),
		"json":  json.String(),
		"trace": trace.String(),
	}
}

// e27Engine registers the standard query mix plus a DSL-compiled set over the
// corpus labels — the compile step runs here, once, outside the measured
// decode loops, which is exactly the deployment shape the DSL is pinned to.
func e27Engine(alpha *alphabet.Alphabet) *engine.Engine {
	eng := engine.New()
	exprs, err := dsl.ParseList(
		"within book: title before author; contains title; no write after close; //library//book; well-formed")
	if err != nil {
		panic(err)
	}
	names, queries, err := dsl.Queries(alpha, exprs)
	if err != nil {
		panic(err)
	}
	for i, q := range queries {
		if _, err := eng.RegisterQuery(names[i], q); err != nil {
			panic(err)
		}
	}
	return eng
}

// e27Drain counts the events of one full decode, discarding them.
func e27Drain(src adapter.Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// e27Measure repeats open→drain decodes of one body until enough wall time
// has accumulated to report a stable events/second figure.
func e27Measure(open func() adapter.Source) (eventsPerSec float64, events int) {
	const minWall = 25 * time.Millisecond
	total, reps := 0, 0
	t0 := time.Now()
	for time.Since(t0) < minWall || reps < 3 {
		n, err := e27Drain(open())
		if err != nil {
			panic(err)
		}
		total, events, reps = total+n, n, reps+1
	}
	return float64(total) / time.Since(t0).Seconds(), events
}

// e27AdapterThroughput measures the real-input adapters — XML, JSON, and
// enter/exit traces — against the native tokenizer they are pinned to.  Each
// format decodes a synthetic corpus of about `events` events through its
// adapter with interning against a partial alphabet, the hot configuration
// the serving paths use; the native row re-tokenizes the rendered form of the
// XML stream, so its figure is the ceiling the adapters are compared to
// (vs native = adapter rate / tokenizer rate).  The agree column re-checks
// the differential contract at experiment time: the adapted stream must equal
// its own Render+retokenize image event for event, and a DSL-compiled query
// engine must reach identical verdicts on both — false anywhere invalidates
// the row.
func e27AdapterThroughput(events int) Table {
	alpha := e27Alphabet()
	corpus := e27Corpus(events)
	eng := e27Engine(alpha)

	// Native ceiling: the tokenizer decoding the rendered XML stream.
	xmlEvents, err := e27Decode("xml", corpus["xml"], nil)
	if err != nil {
		panic(err)
	}
	nativeText := docstream.Render(docstream.ToNestedWord(xmlEvents))
	nativeRate, nativeN := e27Measure(func() adapter.Source {
		return docstream.NewInterningTokenizer(strings.NewReader(nativeText), alpha)
	})

	rows := [][]string{{
		"native", itoa(len(nativeText)), itoa(nativeN),
		ftoa(nativeRate / 1e6), ftoa(1.0), btoa(true),
	}}
	for _, format := range adapter.Formats() {
		body := corpus[format]
		rate, n := e27Measure(func() adapter.Source {
			src, err := adapter.New(format, strings.NewReader(body), alpha)
			if err != nil {
				panic(err)
			}
			return src
		})
		rows = append(rows, []string{
			format, itoa(len(body)), itoa(n),
			ftoa(rate / 1e6), ftoa(rate / nativeRate),
			btoa(e27Agree(eng, alpha, format, body)),
		})
	}
	return Table{
		Name:   "E27 (adapter): XML/JSON/trace decode throughput vs the native tokenizer, differential contract re-checked",
		Header: []string{"format", "input bytes", "events", "Mevents/s", "vs native", "agree"},
		Rows:   rows,
	}
}

// e27Decode decodes one whole body in format, interning against alpha (nil
// for spelled, uninterned events).
func e27Decode(format, body string, alpha *alphabet.Alphabet) ([]docstream.Event, error) {
	src, err := adapter.New(format, strings.NewReader(body), alpha)
	if err != nil {
		return nil, err
	}
	var events []docstream.Event
	for {
		e, err := src.Next()
		if err == io.EOF {
			return events, nil
		}
		if err != nil {
			return nil, err
		}
		events = append(events, e)
	}
}

// e27Agree re-runs the differential contract for one body: adapter events
// must equal the Render+retokenize image exactly (kind, label, and interned
// symbol), and the engine's verdicts over the adapted stream must equal its
// verdicts over the rendered text.  The text is rendered from a nil-alphabet
// decode, because interned events do not spell out-of-alphabet labels.
func e27Agree(eng *engine.Engine, alpha *alphabet.Alphabet, format, body string) bool {
	events, err := e27Decode(format, body, alpha)
	if err != nil {
		return false
	}
	plain, err := e27Decode(format, body, nil)
	if err != nil {
		return false
	}
	rendered := docstream.Render(docstream.ToNestedWord(plain))
	retok := docstream.NewInterningTokenizer(strings.NewReader(rendered), alpha)
	for _, e := range events {
		g, err := retok.Next()
		if err != nil || g != e {
			return false
		}
	}
	if _, err := retok.Next(); err != io.EOF {
		return false
	}

	adapted, err := eng.Run(engine.Events(events))
	if err != nil {
		return false
	}
	renderedRun, err := eng.RunReader(strings.NewReader(rendered))
	if err != nil {
		return false
	}
	for q := range adapted.Verdicts {
		if adapted.Verdicts[q] != renderedRun.Verdicts[q] {
			return false
		}
	}
	return true
}
