package generator

import (
	"io"
	"math/rand"

	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// DocumentStream generates a random well-formed document as a stream of
// SAX-style events, one call to Next at a time, without ever materializing
// the document: its only state is the RNG and the stack of currently open
// element labels, so memory is proportional to the nesting depth.  It is the
// workload source for the multi-query streaming experiment (E21), where the
// engine must process millions of events in one pass.
//
// The same seed always yields the same event sequence, so several passes
// over "the same document" are made by creating several streams with equal
// parameters.
type DocumentStream struct {
	rng       *rand.Rand
	remaining int
	maxDepth  int
	labels    []string
	stack     []string
	emitted   int
}

// NewDocumentStream returns a stream of approximately size events (every
// opened element is closed, so a few events beyond size may be emitted) with
// nesting depth at most maxDepth over the given element/text labels.
func NewDocumentStream(seed int64, size, maxDepth int, labels []string) *DocumentStream {
	return &DocumentStream{
		rng:       rand.New(rand.NewSource(seed)),
		remaining: size,
		maxDepth:  maxDepth,
		labels:    labels,
	}
}

// Next returns the next event, or io.EOF once the document is complete.
func (s *DocumentStream) Next() (docstream.Event, error) {
	if s.remaining <= 0 {
		// Close any elements still open so the document is well matched.
		if n := len(s.stack); n > 0 {
			label := s.stack[n-1]
			s.stack = s.stack[:n-1]
			s.emitted++
			return docstream.Event{Kind: nestedword.Return, Label: label}, nil
		}
		return docstream.Event{}, io.EOF
	}
	s.remaining--
	s.emitted++
	// Reserve enough of the budget to close what is already open.
	if n := len(s.stack); n > 0 && s.remaining < n {
		label := s.stack[n-1]
		s.stack = s.stack[:n-1]
		return docstream.Event{Kind: nestedword.Return, Label: label}, nil
	}
	switch r := s.rng.Intn(6); {
	case r == 0 && len(s.stack) < s.maxDepth && s.remaining > 0:
		label := s.labels[s.rng.Intn(len(s.labels))]
		s.stack = append(s.stack, label)
		return docstream.Event{Kind: nestedword.Call, Label: label}, nil
	case r == 1 && len(s.stack) > 0:
		n := len(s.stack)
		label := s.stack[n-1]
		s.stack = s.stack[:n-1]
		return docstream.Event{Kind: nestedword.Return, Label: label}, nil
	default:
		return docstream.Event{Kind: nestedword.Internal, Label: s.labels[s.rng.Intn(len(s.labels))]}, nil
	}
}
