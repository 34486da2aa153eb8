package engine

import (
	"io"

	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// BatchSize exposes the session batch size to the external tests, so the
// batch-boundary documents track it if it ever changes.
const BatchSize = batchSize

// wordSource streams a nested word position by position.
type wordSource struct {
	n   *nestedword.NestedWord
	pos int
}

func (s *wordSource) Next() (docstream.Event, error) {
	if s.pos >= s.n.Len() {
		return docstream.Event{}, io.EOF
	}
	e := docstream.Event{Kind: s.n.KindAt(s.pos), Label: s.n.SymbolAt(s.pos)}
	s.pos++
	return e, nil
}

// Word wraps a nested word as an EventSource; its positions stream through
// the engine exactly as the equivalent document would.
func Word(n *nestedword.NestedWord) EventSource {
	return &wordSource{n: n}
}
