package server

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/serve"
)

// verdictTable is one generation's pre-encoded verdict map: the bundle's
// query names sorted in byte order, the order encoding/json writes map
// keys in, each already spelled as `"<escaped name>":`.
type verdictTable struct {
	keys  [][]byte
	slots []int // slots[k] is keys[k]'s index in engine.Result.Verdicts
}

// newVerdictTable builds the table for the engine verdict names, given in
// Result.Verdicts order.
func newVerdictTable(names []string) verdictTable {
	slots := make([]int, len(names))
	for i := range slots {
		slots[i] = i
	}
	slices.SortFunc(slots, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	keys := make([][]byte, len(names))
	for k, i := range slots {
		keys[k] = append(appendString(nil, names[i]), ':')
	}
	return verdictTable{keys: keys, slots: slots}
}

// appendResult appends the NDJSON line json.NewEncoder(w).Encode writes
// for the DocumentResult of res: the same keys in the same order, the same
// escaping, and the trailing newline.
//
//nwvet:hotpath
func (t *verdictTable) appendResult(dst []byte, res serve.Result) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, res.ID)
	dst = append(dst, `,"shard":`...)
	dst = strconv.AppendInt(dst, int64(res.Shard), 10)
	dst = append(dst, `,"events":`...)
	dst = strconv.AppendInt(dst, int64(res.Engine.Events), 10)
	dst = append(dst, `,"max_depth":`...)
	dst = strconv.AppendInt(dst, int64(res.Engine.MaxDepth), 10)
	dst = append(dst, `,"verdicts":{`...)
	for k, key := range t.keys {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, key...)
		if res.Engine.Verdicts[t.slots[k]] {
			dst = append(dst, "true"...)
		} else {
			dst = append(dst, "false"...)
		}
	}
	dst = append(dst, "}}\n"...)
	return dst
}

// appendError appends the NDJSON error line encoding/json writes for a
// batch document that failed: no verdicts, and the error unless it is
// empty (the field is omitempty).
func appendError(dst []byte, id, msg string) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, id)
	dst = append(dst, `,"shard":0,"events":0,"max_depth":0,"verdicts":null`...)
	if msg != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, msg)
	}
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json's Encoder
// does with its default HTML escaping: <, > and & become \u003c, \u003e
// and \u0026, control bytes get their short escape or \u00XX, U+2028 and
// U+2029 are escaped, and each invalid UTF-8 byte becomes \ufffd.
//
//nwvet:hotpath
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	run := 0 // start of the pending run of bytes copied unchanged
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[run:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			run = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, s[run:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[run:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		run = i
	}
	dst = append(dst, s[run:]...)
	dst = append(dst, '"')
	return dst
}
