// The XML oracle: the original encoding/xml-backed adapter, kept as the
// reference the byte scanner is differentially tested against.
package adapter

import (
	"encoding/xml"
	"io"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// oracleQueue is the state every oracle adapter shares: the interning
// alphabet, the queue of decoded-but-undelivered events, and the sticky
// error.
type oracleQueue struct {
	alpha *alphabet.Alphabet
	q     []docstream.Event
	qi    int
	err   error
}

// push queues one event, sanitizing and interning the label through the
// shared docstream.NewEvent mapping.
func (s *oracleQueue) push(kind nestedword.Kind, label string) {
	s.q = append(s.q, docstream.NewEvent(kind, sanitizeString(label), s.alpha))
}

// sanitizeString is sanitize over an arbitrary string, the form the oracles
// spell their labels in: each invalid UTF-8 byte becomes U+FFFD first, as
// the tokenizer reads it.
func sanitizeString(label string) string {
	return string(sanitize([]byte(string([]rune(label)))))
}

// next pops the next queued event, refilling the queue until it has one or
// refill sets the sticky error.
func (s *oracleQueue) next(refill func()) (docstream.Event, error) {
	for {
		if s.qi < len(s.q) {
			e := s.q[s.qi]
			s.qi++
			return e, nil
		}
		if s.err != nil {
			return docstream.Event{}, s.err
		}
		s.q, s.qi = s.q[:0], 0
		refill()
	}
}

// oracleXML maps encoding/xml tokens onto events: start element → call, end
// element → return, each whitespace-separated character-data token →
// internal.  Attributes produce no event.
type oracleXML struct {
	oracleQueue
	dec *xml.Decoder
}

func newOracleXML(r io.Reader, alpha *alphabet.Alphabet) *oracleXML {
	return &oracleXML{oracleQueue: oracleQueue{alpha: alpha}, dec: xml.NewDecoder(r)}
}

func (a *oracleXML) Next() (docstream.Event, error) { return a.next(a.refill) }

// refill decodes one XML token into zero or more queued events, or sets the
// sticky error.
func (a *oracleXML) refill() {
	tok, err := a.dec.Token()
	if err != nil {
		a.err = err
		return
	}
	switch t := tok.(type) {
	case xml.StartElement:
		a.push(nestedword.Call, t.Name.Local)
	case xml.EndElement:
		a.push(nestedword.Return, t.Name.Local)
	case xml.CharData:
		for _, f := range strings.Fields(string(t)) {
			a.push(nestedword.Internal, f)
		}
	}
}
