// Command nwquery streams an XML-like document from a file (or standard
// input) through compiled nested-word-automaton queries, all evaluated by
// the engine package in one left-to-right pass with memory bounded by the
// document depth times the number of queries (Section 3.2 of the paper).
//
// Usage:
//
//	nwquery [-file doc.xml] [-format xml|json|trace] [-labels l1,l2,...]
//	        [-order l1,l2,...] [-path l1,l2,...] [-dsl QUERIES]
//	nwquery [-file doc.xml] [-format ...] -queryset queries.nwq
//
// The query automata need the document's tag/text alphabet up front.  Pass
// it with -labels to stay fully streaming; without -labels the document is
// buffered once to discover the alphabet before the engine pass.  With
// -queryset the compile step is skipped entirely: the serialized bundle
// written by `nwtool compile` is loaded (mmap'd read-only where available)
// and its alphabet and query set are used as-is, which both stays fully
// streaming and makes cold starts independent of query complexity.
//
// -format routes the input through one of the internal/adapter event
// sources — real XML, JSON, or an enter/exit program trace — instead of the
// native XML-like tokenizer; everything downstream (the engine pass, the
// queries, the verdicts) is unchanged.  -dsl adds textual queries (see
// internal/query/dsl), semicolon-separated, to the compiled set; their
// labels join the alphabet like -order/-path labels do.  The query-set
// flags are shared with nwserve and nwtool compile (cmd/internal/queryset).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/cmd/internal/queryset"
	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
)

func main() {
	file := flag.String("file", "", "document file (default: standard input)")
	format := flag.String("format", "", "input format: xml, json, or trace (default: the native XML-like token syntax)")
	qf := queryset.Register(flag.CommandLine, queryset.Usage{
		Labels:   "comma-separated document alphabet: labels are interned to compiled symbol IDs at the tokenizer and the engine streams the input directly (labels not listed map to the out-of-alphabet ID and are uniformly rejected); without -labels the document is buffered once to discover the alphabet",
		DSL:      "semicolon-separated DSL queries (e.g. 'within book: title before author'); their labels join the alphabet",
		Queryset: "serialized query bundle from `nwtool compile`: boot from it instead of compiling (-labels/-order/-path/-dsl must not be given; the bundle fixes the alphabet and the queries)",
	})
	flag.Parse()

	var in io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	// Without -labels (and without -queryset) the alphabet must be
	// discovered first, which costs one buffered pass over the input; with
	// either, the engine consumes the reader directly and nothing
	// proportional to the document is ever stored.
	var buffered []docstream.Event
	streaming := true
	bundle, err := qf.Build(func() ([]string, error) {
		streaming = false
		var err error
		buffered, err = queryset.Drain(*format, in)
		return queryset.Labels(buffered), err
	})
	if err != nil {
		fatal(err)
	}
	defer bundle.Close()
	eng := engine.New()
	if _, err := eng.RegisterBundle(bundle); err != nil {
		fatal(err)
	}
	alpha := bundle.Alphabet()

	var res *engine.Result
	var unknown *unknownLabelSource
	if !streaming {
		res, err = eng.Run(engine.Events(buffered))
	} else {
		// In streaming mode a label missing from -labels maps to the
		// dedicated out-of-alphabet symbol ID, which drives every automaton
		// to its dead state.  That is uniform and correct, but a false
		// verdict caused by an incomplete -labels list looks exactly like a
		// query rejection, so track the out-of-alphabet labels and
		// summarize them once at exit.  An interning source does not spell
		// out-of-alphabet labels, so the source decodes uninterned and each
		// event is interned here, keeping its label.
		src, serr := adapter.New(*format, in, nil)
		if serr != nil {
			fatal(serr)
		}
		unknown = &unknownLabelSource{
			src:    src,
			alpha:  alpha,
			counts: map[string]int{},
		}
		res, err = eng.Run(unknown)
	}
	if err != nil {
		fatal(err)
	}

	fmt.Printf("document: %d events, max open elements %d\n", res.Events, res.MaxDepth)
	for i, name := range eng.Names() {
		fmt.Printf("%-30s : %v\n", name, res.Verdicts[i])
	}
	unknown.report(os.Stderr)
}

// unknownLabelSource interns the events of an uninterned source against
// alpha while tallying, per distinct label, the events that get the
// out-of-alphabet symbol ID.
type unknownLabelSource struct {
	src    engine.EventSource
	alpha  *alphabet.Alphabet
	counts map[string]int
	total  int
}

func (u *unknownLabelSource) Next() (docstream.Event, error) {
	e, err := u.src.Next()
	if err != nil {
		return e, err
	}
	e = e.Interned(u.alpha)
	if e.OutOfAlphabet(u.alpha) {
		u.counts[e.Label]++
		u.total++
	}
	return e, nil
}

// report prints one deduplicated summary of the out-of-alphabet traffic: the
// event total, the distinct labels (most frequent first), and a reminder
// that such events are uniformly rejected.
func (u *unknownLabelSource) report(w io.Writer) {
	if u == nil || u.total == 0 {
		return
	}
	labels := make([]string, 0, len(u.counts))
	for l := range u.counts {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if u.counts[labels[i]] != u.counts[labels[j]] {
			return u.counts[labels[i]] > u.counts[labels[j]]
		}
		return labels[i] < labels[j]
	})
	const maxListed = 8
	listed := labels
	if len(listed) > maxListed {
		listed = listed[:maxListed]
	}
	parts := make([]string, len(listed))
	for i, l := range listed {
		parts[i] = fmt.Sprintf("%q×%d", l, u.counts[l])
	}
	suffix := ""
	if len(labels) > maxListed {
		suffix = fmt.Sprintf(", … %d more", len(labels)-maxListed)
	}
	fmt.Fprintf(w,
		"nwquery: warning: %d events carried %d distinct labels missing from -labels (%s%s); queries treat them as out-of-alphabet and reject\n",
		u.total, len(labels), strings.Join(parts, ", "), suffix)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nwquery:", err)
	os.Exit(1)
}
