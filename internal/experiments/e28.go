package experiments

import (
	"math/rand"
	"time"

	"repro/internal/alphabet"
	"repro/internal/docstream"
	"repro/internal/engine"
	"repro/internal/generator"
	"repro/internal/nestedword"
	"repro/internal/query"
	"repro/internal/query/plan"
)

// e28Labels is the 16-label document alphabet of the product-compilation
// experiment — wide enough that a 16-member ContainsLabel family exists with
// every member watching a different label.
var e28Labels = []string{
	"a", "b", "c", "d", "e", "f", "g", "h",
	"i", "j", "k", "l", "m", "n", "o", "p",
}

const e28Seed = 28

// e28Bundle builds the unplanned n-query bundle: ContainsLabel(l) for the
// first n labels.  Each member compiles to ~3 states, and the members are
// structurally similar (same shape, different watched label), so the
// n-member product has ~2^n+1 states — the multiplicative Section 3.2 cost
// the planner's budget exists to catch.
func e28Bundle(n int) *query.Bundle {
	alpha := alphabet.New(e28Labels...)
	b := query.NewBundle(alpha)
	for i := 0; i < n; i++ {
		if err := b.Add("contains "+e28Labels[i], query.Compile(query.ContainsLabel(alpha, e28Labels[i]))); err != nil {
			panic(err)
		}
	}
	return b
}

// e28Engine registers a bundle into a fresh engine.
func e28Engine(b *query.Bundle) *engine.Engine {
	eng := engine.New()
	if _, err := eng.RegisterBundle(b); err != nil {
		panic(err)
	}
	return eng
}

// e28Time runs one engine over the generated document stream, best of three
// passes after a pooled warm-up, and returns the fastest duration with its
// result.
func e28Time(eng *engine.Engine, size int) (*engine.Result, time.Duration) {
	stream := func() *generator.DocumentStream {
		return generator.NewDocumentStream(e28Seed, size, 24, e28Labels)
	}
	if _, err := eng.Run(stream()); err != nil {
		panic(err)
	}
	const reps = 3
	var res *engine.Result
	var best time.Duration
	for rep := 0; rep < reps; rep++ {
		t0 := time.Now()
		r, err := eng.Run(stream())
		d := time.Since(t0)
		if err != nil {
			panic(err)
		}
		if rep == 0 || d < best {
			res, best = r, d
		}
	}
	return res, best
}

// e28Agree checks all three engines against the per-query serial oracle on
// random documents and nested words — including pending calls/returns and an
// out-of-alphabet label — plus the verdicts of the timed runs against each
// other.
func e28Agree(src *query.Bundle, engines []*engine.Engine, timed []*engine.Result) bool {
	for _, r := range timed[1:] {
		for q := range timed[0].Verdicts {
			if r.Verdicts[q] != timed[0].Verdicts[q] {
				return false
			}
		}
	}
	rng := rand.New(rand.NewSource(e28Seed))
	labels := append(append([]string(nil), e28Labels[:4]...), "zz")
	alpha := src.Alphabet()
	for trial := 0; trial < 150; trial++ {
		var n *nestedword.NestedWord
		if trial%3 == 0 {
			n = generator.RandomNestedWord(rng, rng.Intn(60), labels)
		} else {
			n = generator.RandomDocument(rng, 2+rng.Intn(60), 6, labels)
		}
		events := make([]docstream.Event, n.Len())
		for i := range events {
			events[i] = docstream.Event{Kind: n.KindAt(i), Label: n.SymbolAt(i)}
		}
		for _, eng := range engines {
			res, err := eng.Run(engine.Events(events))
			if err != nil {
				panic(err)
			}
			for q := 0; q < src.Len(); q++ {
				if res.Verdicts[q] != query.RunWord(src.Query(q).NewRunner(), alpha, n) {
					return false
				}
			}
		}
	}
	return true
}

// e28ProductCompilation measures the query planner's product compilation
// against per-query fan-out: for n structurally similar queries, one pass
// over the same generated document drives either n per-query runners
// (fan-out), one forced whole-set product (plan with ClusterSize = n — at
// n = 16 the ~2^16-state product blows the default budget and the planner
// degrades it back to fan-out, which is the crossover the state budget
// exists for), or the planner's defaults (clusters of ≤ 8, each a ~2^8-state
// product that stays within budget at every n).  The prod/plan states
// columns make the fallback visible: the forced product reports 0 states at
// n = 16.  Every mode must agree with the per-query serial oracle on random
// words with pending calls/returns and out-of-alphabet labels.
func e28ProductCompilation(size int) Table {
	rows := [][]string{}
	for _, n := range []int{2, 4, 8, 16} {
		src := e28Bundle(n)

		forced, forcedDec, err := plan.Bundle(src, plan.Options{ClusterSize: n})
		if err != nil {
			panic(err)
		}
		auto, autoDec, err := plan.Bundle(src, plan.Options{})
		if err != nil {
			panic(err)
		}

		fanEng := e28Engine(src)
		prodEng := e28Engine(forced)
		planEng := e28Engine(auto)

		fanRes, fanout := e28Time(fanEng, size)
		prodRes, product := e28Time(prodEng, size)
		planRes, planner := e28Time(planEng, size)

		agree := e28Agree(src, []*engine.Engine{fanEng, prodEng, planEng},
			[]*engine.Result{fanRes, prodRes, planRes})

		best := product
		if planner < best {
			best = planner
		}
		perEvent := func(d time.Duration) string {
			return ftoa(float64(d.Nanoseconds()) / float64(fanRes.Events))
		}
		rows = append(rows, []string{
			itoa(n), itoa(forcedDec.States), itoa(len(autoDec.Groups)), itoa(autoDec.States),
			perEvent(fanout), perEvent(product), perEvent(planner),
			ftoa(float64(fanout) / float64(best)), btoa(agree),
		})
	}
	return Table{
		Name:   "E28 (plan): product-compiled clusters vs per-query fan-out, state-budget fallback at 16 queries",
		Header: []string{"queries", "prod states", "plan groups", "plan states", "fanout ns/ev", "product ns/ev", "planner ns/ev", "speedup", "agree"},
		Rows:   rows,
	}
}
