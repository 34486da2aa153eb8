// The JSON oracle: the original encoding/json-backed adapter, kept as the
// reference the byte scanner is differentially tested against.
package adapter

import (
	"encoding/json"
	"io"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// oracleJSON maps json.Decoder tokens (UseNumber) onto events: '{' / '}'
// and '[' / ']' become "object" / "array" calls and returns, every key and
// scalar one internal event carrying its text.
type oracleJSON struct {
	oracleQueue
	dec *json.Decoder
}

func newOracleJSON(r io.Reader, alpha *alphabet.Alphabet) *oracleJSON {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return &oracleJSON{oracleQueue: oracleQueue{alpha: alpha}, dec: dec}
}

func (a *oracleJSON) Next() (docstream.Event, error) { return a.next(a.refill) }

// refill decodes one JSON token into a queued event, or sets the sticky
// error.  The decoder enforces delimiter and separator placement itself.
func (a *oracleJSON) refill() {
	tok, err := a.dec.Token()
	if err != nil {
		a.err = err
		return
	}
	switch t := tok.(type) {
	case json.Delim:
		switch t {
		case '{':
			a.push(nestedword.Call, objectLabel)
		case '[':
			a.push(nestedword.Call, arrayLabel)
		case '}':
			a.push(nestedword.Return, objectLabel)
		case ']':
			a.push(nestedword.Return, arrayLabel)
		}
	case string:
		a.push(nestedword.Internal, t)
	case json.Number:
		a.push(nestedword.Internal, t.String())
	case bool:
		if t {
			a.push(nestedword.Internal, "true")
		} else {
			a.push(nestedword.Internal, "false")
		}
	case nil:
		a.push(nestedword.Internal, "null")
	}
}
