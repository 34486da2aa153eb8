package engine

import (
	"io"

	"repro/internal/docstream"
)

// sliceSource streams an in-memory event slice.
type sliceSource struct {
	events []docstream.Event
	pos    int
}

func (s *sliceSource) Next() (docstream.Event, error) {
	if s.pos >= len(s.events) {
		return docstream.Event{}, io.EOF
	}
	e := s.events[s.pos]
	s.pos++
	return e, nil
}

// Events wraps an in-memory event slice as an EventSource.
func Events(events []docstream.Event) EventSource {
	return &sliceSource{events: events}
}
