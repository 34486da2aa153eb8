// Command nwserve serves many XML-like documents through a sharded
// serve.Pool against one compiled query set, and reports aggregate verdicts
// and throughput — the multi-document counterpart of cmd/nwquery's
// single-document pass.  (For the long-running HTTP daemon over the same
// pool — network clients, zero-downtime bundle reloads, metrics — see
// cmd/nwserved.)
//
// Usage:
//
//	nwserve [-labels l1,l2,...] [-order l1,l2,...] [-path l1,l2,...]
//	        [-dsl QUERIES] [-format xml|json|trace]
//	        [-queryset queries.nwq]
//	        [-shards n] [-queue n]
//	        [-dir directory] [file ...]
//
// Documents come from the positional file arguments and every regular file
// under -dir; with neither, standard input is read as a stream of documents
// separated by lines containing only "---".  Each document is hashed by its
// name (file path, or stdin ordinal) to a shard and evaluated against the
// registered queries in one pass: well-formedness always, plus the -order
// and -path queries and the semicolon-separated -dsl queries (see
// internal/query/dsl) when given.
// With -format the documents are real XML, JSON, or enter/exit program
// traces, decoded on the shard workers through the matching
// internal/adapter event source instead of the native tokenizer.
//
// The query automata need the document alphabet up front.  Pass it with
// -labels (labels are interned to compiled symbol IDs at the tokenizer;
// labels not listed map to the dedicated out-of-alphabet ID and are
// uniformly rejected); without -labels every document is tokenized once
// before serving to discover the alphabet.  With -queryset no automaton is
// compiled at all: the serialized bundle written by `nwtool compile` is
// mapped read-only and served as-is — the fleet cold-start path where many
// front-end processes share one compiled query set on disk.  The query-set
// flags are shared with nwquery and nwtool compile (cmd/internal/queryset).
package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/cmd/internal/queryset"
	"repro/internal/serve"
)

func main() {
	qf := queryset.Register(flag.CommandLine, queryset.Usage{
		Labels:   "comma-separated document alphabet; without it, documents are tokenized once up front to discover the labels",
		DSL:      "semicolon-separated DSL queries (e.g. 'within book: title before author'); their labels join the alphabet",
		Queryset: "serialized query bundle from `nwtool compile`: boot from it instead of compiling (-labels/-order/-path/-dsl must not be given)",
	})
	format := flag.String("format", "", "document format: xml, json, or trace (default: the native XML-like token syntax)")
	dir := flag.String("dir", "", "serve every regular file under this directory")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0), "number of pool shards (worker sessions)")
	queue := flag.Int("queue", 64, "bounded queue depth per shard (backpressure)")
	flag.Parse()

	docs, err := collectDocuments(*dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	if len(docs) == 0 {
		fatal(fmt.Errorf("no documents to serve"))
	}

	// Without -labels (and without -queryset), the discovery pass decodes
	// every document once, collecting labels.
	bundle, err := qf.Build(func() ([]string, error) {
		var labels []string
		for _, d := range docs {
			events, err := queryset.Drain(*format, bytes.NewReader(d.body))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", d.name, err)
			}
			labels = append(labels, queryset.Labels(events)...)
		}
		return labels, nil
	})
	if err != nil {
		fatal(err)
	}
	defer bundle.Close()

	pool, err := serve.NewPoolFromBundle(bundle, serve.WithShards(*shards), serve.WithQueueDepth(*queue))
	if err != nil {
		fatal(err)
	}
	accepted := make([]int, bundle.Len())
	var failures []string
	tally := func(f *serve.Future) {
		if res, err := f.Wait(context.Background()); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", res.ID, err))
		} else {
			for i, v := range res.Engine.Verdicts {
				if v {
					accepted[i]++
				}
			}
		}
		f.Release()
	}

	// A window of futures, as many as the shard queues hold plus one in
	// service per shard: once it is full, the oldest is tallied before the
	// next document is submitted, so the bookkeeping does not grow with
	// the corpus.
	window := make([]*serve.Future, pool.Shards()*(pool.QueueCap()+1))
	start := time.Now()
	for i, d := range docs {
		slot := &window[i%len(window)]
		if *slot != nil {
			tally(*slot)
		}
		if *slot, err = pool.Submit(context.Background(), d.name, *format, bytes.NewReader(d.body)); err != nil {
			fatal(err)
		}
	}
	for _, f := range window {
		if f != nil {
			tally(f)
		}
	}
	if err := pool.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	st := pool.Stats()
	fmt.Printf("served %d documents (%d events) on %d shards in %v\n",
		st.Served, st.Events, pool.Shards(), elapsed.Round(time.Microsecond))
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("throughput: %.0f docs/s, %.2f Mev/s\n",
			float64(st.Served)/secs, float64(st.Events)/secs/1e6)
	}
	for i, name := range bundle.Names() {
		fmt.Printf("%-30s : %d/%d documents\n", name, accepted[i], st.Served-st.Failed)
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		fmt.Fprintf(os.Stderr, "nwserve: %d documents failed:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
}

// document is one unit of work: a display name (its shard's routing key)
// and the raw bytes.
type document struct {
	name string
	body []byte
}

// collectDocuments gathers documents from explicit file arguments, a
// directory, or — when neither is given — standard input split on "---"
// separator lines.
func collectDocuments(dir string, files []string) ([]document, error) {
	var docs []document
	for _, f := range files {
		body, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		docs = append(docs, document{name: f, body: body})
	}
	if dir != "" {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			docs = append(docs, document{name: path, body: body})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(docs) > 0 {
		return docs, nil
	}
	// Standard input: documents separated by lines containing only "---".
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var cur bytes.Buffer
	n := 0
	emit := func() {
		if strings.TrimSpace(cur.String()) != "" {
			docs = append(docs, document{name: fmt.Sprintf("stdin-%d", n), body: append([]byte(nil), cur.Bytes()...)})
			n++
		}
		cur.Reset()
	}
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "---" {
			emit()
			continue
		}
		cur.Write(sc.Bytes())
		cur.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	emit()
	return docs, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwserve:", err)
	os.Exit(1)
}
