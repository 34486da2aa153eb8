// Package svc is a scoped serving package whose every exported identifier
// earns its place.
package svc

// New is called from the sibling bench module.
func New(opts Options) *Engine { return &Engine{opts: opts} }

// Engine is named by New's result: the signature cascade.
type Engine struct{ opts Options }

// Options is named by New's parameter.
type Options struct {
	Mode  Mode   // an exported field: its type cascades
	Hooks []Hook // and so on, through Hook's signature to Event
}

// Mode selects a behaviour.  Its constants pass because the type does.
type Mode int

// The modes.
const (
	ModeFast Mode = iota
	ModeSafe
)

// String satisfies fmt.Stringer; the standard library calls it.
func (m Mode) String() string { return [...]string{"fast", "safe"}[m] }

// Hook observes one event.
type Hook func(Event)

// Event is named by Hook's signature.
type Event struct{ Seq int }

// Run is called by name from the bench module.
func (e *Engine) Run() error {
	_ = tally(e)
	return nil
}

// Sizer is named by Measure's parameter, so it passes.
type Sizer interface{ Size() int }

// Measure is called from the bench module, with an *Engine as its Sizer.
func Measure(s Sizer) int { return s.Size() }

// Size is reached only through Sizer: the bench module never spells it.
func (e *Engine) Size() int { return 0 }

// Presets is read by the bench module; its initializer is the only
// reference to fastOptions.
var Presets = map[string]func() Options{"fast": fastOptions}

// fastOptions is live through Presets' initializer alone.
func fastOptions() Options { return Options{Mode: ModeFast} }

// counter is the package's own view of a countable value.
type counter interface{ count() int }

// tally is called by Run, and calls count only through counter.
func tally(cs ...counter) int {
	n := 0
	for _, c := range cs {
		n += c.count()
	}
	return n
}

// count is reached only through counter, which the live tally calls.
func (e *Engine) count() int { return 1 }

// Reference is kept as a test oracle.
//
//nwvet:oracle TestReference holds New to it
func Reference() *Engine { return New(Options{}) }

// reference is kept as a test oracle too.
//
//nwvet:oracle TestReference holds Measure to it
func reference() int { return 0 }
