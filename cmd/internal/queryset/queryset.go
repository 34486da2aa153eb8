// Package queryset builds the query set that nwquery, nwserve and
// nwtool compile describe with their shared flags: -labels, -order, -path
// and -dsl, plus -queryset on the serving commands.  The result is always a
// *query.Bundle — compiled in memory from the flags, or opened from a
// serialized bundle — so every command reaches the engine through
// engine.RegisterBundle, and a bundle written by nwtool compile answers
// exactly like the same flags compiled in process.
package queryset

import (
	"errors"
	"flag"
	"io"
	"strings"

	"repro/internal/adapter"
	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/query"
	"repro/internal/query/dsl"
)

// Usage is one command's help text for the flags whose wording differs
// between commands.  An empty Queryset leaves -queryset undefined.
type Usage struct {
	Labels   string
	DSL      string
	Queryset string
}

// Flags holds the parsed query-set flags of one command.
type Flags struct {
	labels, order, path, dsl, queryset string
}

// Register defines the query-set flags on fs.
func Register(fs *flag.FlagSet, u Usage) *Flags {
	f := &Flags{}
	fs.StringVar(&f.labels, "labels", "", u.Labels)
	fs.StringVar(&f.order, "order", "", "comma-separated labels for a linear-order query")
	fs.StringVar(&f.path, "path", "", "comma-separated labels for a hierarchical path query")
	fs.StringVar(&f.dsl, "dsl", "", u.DSL)
	if u.Queryset != "" {
		fs.StringVar(&f.queryset, "queryset", "", u.Queryset)
	}
	return f
}

// Build returns the query set the flags describe.
//
// With -queryset the serialized bundle is opened as-is (mapped read-only;
// Close releases it), and -labels/-order/-path/-dsl must not be given: the
// bundle fixes the alphabet and the queries.
//
// Otherwise the bundle is compiled in memory: well-formedness always, the
// -order and -path queries when given, then the -dsl queries, over the
// alphabet of every label those flags name.  When -labels is empty and
// discover is non-nil, the labels discover returns — a document's own,
// typically — join the alphabet after the flag labels.
func (f *Flags) Build(discover func() ([]string, error)) (*query.Bundle, error) {
	if f.queryset != "" {
		if f.labels != "" || f.order != "" || f.path != "" || f.dsl != "" {
			return nil, errors.New("-queryset carries its own alphabet and queries; drop -labels/-order/-path/-dsl")
		}
		return query.OpenBundle(f.queryset)
	}
	exprs, err := dsl.ParseList(f.dsl)
	if err != nil {
		return nil, err
	}
	order, path := splitLabels(f.order), splitLabels(f.path)
	labels := splitLabels(f.labels)
	labels = append(labels, order...)
	labels = append(labels, path...)
	labels = append(labels, dsl.Labels(exprs...)...)
	if f.labels == "" && discover != nil {
		found, err := discover()
		if err != nil {
			return nil, err
		}
		labels = append(labels, found...)
	}
	alpha := alphabet.New(labels...)
	names, queries := query.StandardSet(alpha, order, path)
	dslNames, dslQueries, err := dsl.Queries(alpha, exprs)
	if err != nil {
		return nil, err
	}
	names = append(names, dslNames...)
	queries = append(queries, dslQueries...)
	b := query.NewBundle(alpha)
	for i, q := range queries {
		if err := b.Add(names[i], q); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// splitLabels parses a comma-separated label list, trimming whitespace and
// dropping empty entries.
func splitLabels(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if trimmed := strings.TrimSpace(p); trimmed != "" {
			out = append(out, trimmed)
		}
	}
	return out
}

// Drain decodes a whole document in the named adapter.New format into
// uninterned events: the buffered pass that discovers a document's labels.
func Drain(format string, r io.Reader) ([]docstream.Event, error) {
	src, err := adapter.New(format, r, nil)
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

// Labels returns the distinct labels of events in first-seen order.
func Labels(events []docstream.Event) []string {
	seen := map[string]bool{}
	var labels []string
	for _, e := range events {
		if !seen[e.Label] {
			seen[e.Label] = true
			labels = append(labels, e.Label)
		}
	}
	return labels
}
