// Command xmlstream demonstrates the paper's main application argument:
// the SAX event stream of an XML-like document is already a nested word, so
// validation and querying run in a single streaming pass with memory bounded
// by the document depth — no tree needs to be built.  The engine package
// extends the argument from one query to many: every registered query is
// answered by the same single pass over compiled transition tables, with
// each label interned to a symbol ID once at the tokenizer.
//
// Run with -many N to continue into the multi-document serving layer: the
// same engine, wrapped in a sharded serve.Pool, answers the same query set
// over N generated documents concurrently.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nwa"
	"repro/internal/query"
	"repro/internal/serve"
)

const document = `
<catalog>
  <book> <title> marrying words and trees </title> <year> 2007 </year> </book>
  <book> <title> visibly pushdown languages </title> <year> 2004 </year> </book>
  <report> <title> tree automata techniques </title> </report>
</catalog>`

const brokenDocument = `<catalog> <book> <title> dangling </book> </catalog>`

func main() {
	many := flag.Int("many", 0, "also serve this many generated documents through a sharded serve.Pool")
	flag.Parse()

	doc, err := docstream.Parse(document)
	if err != nil {
		panic(err)
	}
	stats := docstream.Summarize(doc)
	fmt.Printf("document: %d positions, %d elements, %d text tokens, depth %d, well-formed %v\n",
		stats.Positions, stats.Elements, stats.TextTokens, stats.Depth, stats.WellFormed)

	alpha := alphabet.New(append(doc.Alphabet(), "missing")...)

	// One engine, five queries, one pass: the interning tokenizer resolves
	// each label to a symbol ID once, and the compiled runners index their
	// transition tables with it, so the memory in play is the five runner
	// stacks — never the document.
	eng := engine.New()
	for _, q := range []struct {
		name string
		d    *nwa.DNWA
	}{
		{"well-formed", query.WellFormed(alpha)},
		{"//book//title", query.PathQuery(alpha, "book", "title")},
		{"//report//year", query.PathQuery(alpha, "report", "year")},
		{"'words' before '2007'", query.LinearOrder(alpha, "words", "2007")},
		{"contains 'pushdown'", query.ContainsLabel(alpha, "pushdown")},
	} {
		if _, err := eng.RegisterQuery(q.name, query.Compile(q.d)); err != nil {
			panic(err)
		}
	}

	res, err := eng.RunReader(strings.NewReader(document))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nsingle-pass engine evaluation (%d events, max open elements %d):\n",
		res.Events, res.MaxDepth)
	for i, name := range eng.Names() {
		fmt.Printf("  %-26s : %v\n", name, res.Verdicts[i])
	}

	// The compiled verdicts coincide with the reference implementation:
	// batch evaluation of the map-keyed source automaton over the parsed
	// word.  The engine pass above never touches these maps — E22 measures
	// the difference.
	fmt.Println("\nreference batch evaluation over the parsed word:")
	fmt.Printf("  //book//title              : %v\n",
		query.PathQuery(alpha, "book", "title").Accepts(doc))

	// Documents that do not parse into a tree are still nested words.
	broken, err := docstream.Parse(brokenDocument)
	if err != nil {
		panic(err)
	}
	bs := docstream.Summarize(broken)
	fmt.Printf("\nbroken document: well-formed %v, pending opens %d, pending closes %d\n",
		bs.WellFormed, bs.PendingOpens, bs.PendingCloses)
	fmt.Printf("it can still be queried: //book//title = %v\n",
		query.PathQuery(alphabet.New(broken.Alphabet()...), "book", "title").Accepts(broken))

	if *many > 0 {
		serveMany(eng, *many)
	}
}

// serveMany is the many-documents mode: the engine built above — same query
// set, same compiled tables — is wrapped in a sharded serve.Pool and fed
// generated documents over the same alphabet.  Each shard owns one engine
// session and one reusable interning tokenizer.  Verdicts come back through
// each document's future, tallied oldest first once a window of as many
// futures as the shards can hold at once is full.
func serveMany(eng *engine.Engine, docs int) {
	accepted := make([]int, eng.Len())
	pool, err := serve.NewPool(eng)
	if err != nil {
		panic(err)
	}
	tally := func(f *serve.Future) {
		res, err := f.Wait(context.Background())
		if err != nil {
			panic(err)
		}
		for i, v := range res.Engine.Verdicts {
			if v {
				accepted[i]++
			}
		}
		f.Release()
	}
	window := make([]*serve.Future, pool.Shards()*(pool.QueueCap()+1))
	labels := []string{"catalog", "book", "report", "title", "year", "words", "2007", "pushdown"}
	start := time.Now()
	for d := 0; d < docs; d++ {
		doc := strings.NewReader(docstream.Render(
			generator.RandomDocument(rand.New(rand.NewSource(int64(d))), 60, 8, labels)))
		slot := &window[d%len(window)]
		if *slot != nil {
			tally(*slot)
		}
		if *slot, err = pool.Submit(context.Background(), fmt.Sprintf("doc-%d", d), "", doc); err != nil {
			panic(err)
		}
	}
	for _, f := range window {
		if f != nil {
			tally(f)
		}
	}
	if err := pool.Close(); err != nil {
		panic(err)
	}
	st := pool.Stats()
	fmt.Printf("\nserved %d generated documents (%d events) on %d shards in %v:\n",
		st.Served, st.Events, pool.Shards(), time.Since(start).Round(time.Microsecond))
	for i, name := range eng.Names() {
		fmt.Printf("  %-26s : accepted by %d/%d documents\n", name, accepted[i], docs)
	}
}
