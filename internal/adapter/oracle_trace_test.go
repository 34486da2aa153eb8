// The trace oracle: the original bufio.Scanner-backed trace adapter, kept as
// the reference the byte scanner is differentially tested against.
package adapter

import (
	"bufio"
	"io"
	"strings"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/nestedword"
)

// oracleTrace splits the input into lines with a 1 MiB bufio.Scanner and
// each line into strings.Fields, then applies the Trace rules line by line.
type oracleTrace struct {
	oracleQueue
	sc   *bufio.Scanner
	open []string // sanitized labels of currently open calls
	done bool
}

func newOracleTrace(r io.Reader, alpha *alphabet.Alphabet) *oracleTrace {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &oracleTrace{oracleQueue: oracleQueue{alpha: alpha}, sc: sc}
}

func (a *oracleTrace) Next() (docstream.Event, error) { return a.next(a.refill) }

// refill consumes one trace line into zero or more queued events, or sets
// the sticky error.
func (a *oracleTrace) refill() {
	if a.done || !a.sc.Scan() {
		a.done = true
		if err := a.sc.Err(); err != nil {
			a.err = err
		} else {
			a.err = io.EOF
		}
		return
	}
	fields := strings.Fields(a.sc.Text())
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return
	}
	switch fields[0] {
	case "enter":
		if len(fields) >= 2 {
			label := sanitizeString(fields[1])
			a.push(nestedword.Call, label)
			a.open = append(a.open, label)
			return
		}
	case "exit":
		label := "_"
		if len(fields) >= 2 {
			label = sanitizeString(fields[1])
		} else if len(a.open) > 0 {
			label = a.open[len(a.open)-1]
		}
		if len(a.open) > 0 {
			a.open = a.open[:len(a.open)-1]
		}
		a.push(nestedword.Return, label)
		return
	}
	for _, f := range fields {
		a.push(nestedword.Internal, f)
	}
}
