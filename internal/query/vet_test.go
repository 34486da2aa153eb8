package query

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/alphabet"
	"repro/internal/nwa"
	"repro/internal/query/format"
)

// unreachableDNWA is a four-state automaton extended with two states the
// start state can never reach (state 4 is the hierarchical target only of
// a call out of itself), three dead transitions out of them — an internal,
// that call, and a return whose hierarchical component 4 no reachable call
// supplies.
func unreachableDNWA() *nwa.DNWA {
	b := nwa.NewDNWABuilder(goldenAlphabet(), 6)
	b.SetStart(0).SetAccept(3)
	b.Internal(0, "a", 1)
	b.Internal(1, "b", 2)
	b.Internal(2, "a", 3)
	b.Call(0, "a", 1, 2)
	b.Call(2, "b", 3, 0)
	b.Return(1, 2, "a", 3)
	b.Return(3, 0, "b", 3)
	b.Internal(4, "a", 5)
	b.Call(4, "b", 5, 4)
	b.Return(1, 4, "a", 3)
	return b.Build()
}

func TestVetGoldenFixtures(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.nwq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden fixtures under testdata/")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := VetBytes(data)
		// Rejection fixtures: version-1 containers are unhashed, standalone
		// queries are no bundle, and every bundle but the factored ones
		// holds a legacy return layout.
		switch base := filepath.Base(f); {
		case strings.HasSuffix(base, "_v1.nwq"):
			if !errors.Is(err, format.ErrUnhashed) {
				t.Errorf("%s: VetBytes: got %v, want format.ErrUnhashed", f, err)
			}
			continue
		case strings.HasPrefix(base, "golden_dnwa") || strings.HasPrefix(base, "golden_nnwa"):
			if err == nil || !strings.Contains(err.Error(), "is not a bundle") {
				t.Errorf("%s: VetBytes: got %v, want a not-a-bundle error", f, err)
			}
			continue
		case !strings.Contains(base, "_factored"):
			if !errors.Is(err, ErrLegacyLayout) {
				t.Errorf("%s: VetBytes: got %v, want ErrLegacyLayout", f, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: VetBytes: %v", f, err)
		}
		if n := rep.Errors(); n != 0 {
			t.Errorf("%s: %d vet errors:\n%s", f, n, rep)
		}
	}
}

func TestVetBundleClean(t *testing.T) {
	rep := vetBundle(goldenBundle(t))
	if rep.Errors() != 0 || rep.warnings() != 0 {
		t.Errorf("golden bundle should vet clean, got:\n%s", rep)
	}
	if len(rep.Queries) != 3 {
		t.Fatalf("got stats for %d queries, want 3", len(rep.Queries))
	}
	for _, s := range rep.Queries {
		if len(s.Unreachable) != 0 || s.DeadTransitions != 0 {
			t.Errorf("query %q: %d unreachable states, %d dead transitions; want none",
				s.Name, len(s.Unreachable), s.DeadTransitions)
		}
	}
}

func TestVetReportsUnreachableStates(t *testing.T) {
	b := NewBundle(goldenAlphabet())
	if err := b.Add("partial", Compile(unreachableDNWA())); err != nil {
		t.Fatal(err)
	}
	rep, err := VetBytes(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Fatalf("unreachable states are warnings, got errors:\n%s", rep)
	}
	if len(rep.Queries) != 1 {
		t.Fatalf("got stats for %d queries, want 1", len(rep.Queries))
	}
	// Compile numbers the hier-capable states 0, 2, 4 and the dead sink
	// first, so source states 4 and 5 are compiled states 2 and 6.
	s := rep.Queries[0]
	if s.States != 7 || s.Reachable != 4 {
		t.Errorf("stats = %d states / %d reachable, want 7 / 4", s.States, s.Reachable)
	}
	if len(s.Unreachable) != 2 || s.Unreachable[0] != 2 || s.Unreachable[1] != 6 {
		t.Errorf("Unreachable = %v, want [2 6]", s.Unreachable)
	}
	// The internal transition 4→5, the call out of 4, and the return over
	// the unsupplied hierarchical component 4 can never fire.
	if s.DeadTransitions != 3 {
		t.Errorf("DeadTransitions = %d, want 3", s.DeadTransitions)
	}
	text := rep.String()
	for _, want := range []string{"state 2 is unreachable", "state 6 is unreachable", "3 dead transitions"} {
		if !strings.Contains(text, want) {
			t.Errorf("report does not mention %q:\n%s", want, text)
		}
	}
}

func TestVetRejectsCorruptedBundle(t *testing.T) {
	data := goldenBundle(t).Marshal()

	truncated := data[:len(data)/2]
	if _, err := VetBytes(truncated); err == nil {
		t.Error("truncated bundle was not rejected")
	}

	smashed := append([]byte(nil), data...)
	smashed[0] ^= 0xff
	if _, err := VetBytes(smashed); err == nil {
		t.Error("bundle with a corrupted magic was not rejected")
	}
}

func TestVetEmptyLanguageWarning(t *testing.T) {
	// An automaton whose only accepting state is unreachable accepts
	// nothing; vet must say so rather than just count the dead state.
	a := nwa.NewDNWABuilder(goldenAlphabet(), 3)
	a.SetStart(0).SetAccept(2)
	a.Internal(0, "a", 1)
	a.Internal(1, "b", 0)
	b := NewBundle(goldenAlphabet())
	if err := b.Add("empty", Compile(a.Build())); err != nil {
		t.Fatal(err)
	}
	rep := vetBundle(b)
	if rep.Errors() != 0 {
		t.Fatalf("empty language is a warning, got errors:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "accepts no document") {
		t.Errorf("missing empty-language warning:\n%s", rep)
	}
}

func TestVetComplementedQueryWarns(t *testing.T) {
	// Complement flips every accept bit, the designated dead sink's
	// included — that is what keeps not(Q) ≡ !Q exact on out-of-alphabet
	// documents.  Vet must therefore treat an accepting dead state as a
	// warning, never an error: the DSL's "no x after y" is exactly this
	// shape and has to remain servable.
	alpha := goldenAlphabet()
	b := NewBundle(alpha)
	if err := b.Add("no b after a", Compile(Not(LinearOrder(alpha, "a", "b")))); err != nil {
		t.Fatal(err)
	}
	rep := vetBundle(b)
	if rep.Errors() != 0 {
		t.Fatalf("complemented query must vet without errors, got:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "is accepting") {
		t.Errorf("missing accepting-dead-state warning:\n%s", rep)
	}
}

// TestVetPlannedBundleClean pins the happy path for product groups: a
// planner-shaped bundle vets with zero errors, and the group's automaton is
// reported under the product- form.
func TestVetPlannedBundleClean(t *testing.T) {
	rep := vetBundle(plannedGoldenBundle(t))
	if rep.Errors() != 0 {
		t.Errorf("planned golden bundle should vet without errors, got:\n%s", rep)
	}
	var forms []string
	for _, s := range rep.Queries {
		forms = append(forms, s.Form)
	}
	if len(forms) != 2 || forms[0] != "product-dnwa" || forms[1] != "dnwa" {
		t.Errorf("forms = %v, want [product-dnwa dnwa]", forms)
	}

	// The serialized path through VetBytes: a bundle whose one product
	// group answers every query.
	members, _ := detProductMembers()
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := NewBundle(p.alphabet())
	cluster := make([]int, len(members))
	for i, m := range members {
		if err := src.Add(fmt.Sprint("q", i), m); err != nil {
			t.Fatal(err)
		}
		cluster[i] = i
	}
	planned, err := NewPlannedBundle(src, [][]int{cluster}, []*CompiledProduct{p})
	if err != nil {
		t.Fatal(err)
	}
	rep, err = VetBytes(planned.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors() != 0 {
		t.Errorf("all-product bundle should vet without errors, got:\n%s", rep)
	}
	if len(rep.Queries) != 1 || rep.Queries[0].Form != "product-dnwa" {
		t.Errorf("stats = %+v, want one product-dnwa entry", rep.Queries)
	}
}

// TestVetCatchesProductMaskDisagreement corrupts the accept bitmask of an
// in-memory product so both representations stay individually valid: only
// the cross-representation vet can see the automaton accepting where no
// member's mask bit is set.
func TestVetCatchesProductMaskDisagreement(t *testing.T) {
	planned := plannedGoldenBundle(t)
	p := planned.Groups()[0].Product
	c := p.inner
	row := func(s int) []uint64 { return p.mask[s*p.maskW : (s+1)*p.maskW] }
	var hit int = -1
	for s := 0; s < c.num; s++ {
		if c.accept[s] && slices.ContainsFunc(row(s), func(w uint64) bool { return w != 0 }) {
			hit = s
			break
		}
	}
	if hit < 0 {
		t.Fatal("fixture changed: the product has no accepting state")
	}
	clear(row(hit))
	rep := vetBundle(planned)
	if rep.Errors() == 0 {
		t.Fatalf("cleared accept-mask row was not caught:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "accept-mask row") {
		t.Errorf("report does not name the mask disagreement:\n%s", rep)
	}
}

// TestVetCatchesGroupDemuxViolations builds planned bundles with broken
// demux tables or alphabets directly (the constructors refuse them),
// serializes each, and checks VetBytes refuses it with the decoder's error —
// the decoder is the one gate for these rules, so vet must fail exactly
// where decoding does.
func TestVetCatchesGroupDemuxViolations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(b *Bundle)
		want   string // phrase of the decoder's error
	}{
		{"index outside the bundle", func(b *Bundle) { b.groups[0].Indices[1] = 9 },
			"index 9 outside the 3 queries"},
		{"query demuxed twice", func(b *Bundle) { b.groups[0].Indices[1] = 0 },
			"covers query \"well-formed\" twice"},
		{"grouped query kept its solo runner", func(b *Bundle) { b.queries[0] = Compile(WellFormed(goldenAlphabet())) },
			"covers query \"well-formed\" twice"},
		{"solo query dropped", func(b *Bundle) { b.queries[2] = nil },
			"covers neither solo nor product for query \"//b//a\""},
		{"groups dropped", func(b *Bundle) { b.groups = nil },
			"lists 3 solo queries but embeds 1"},
		{"demux width mismatch", func(b *Bundle) {
			b.groups[0].Indices = b.groups[0].Indices[:1]
			b.queries[1] = Compile(PathQuery(goldenAlphabet(), "a", "b"))
		}, "product answers 2 queries but demuxes to 1 bundle slots"},
		{"solo query over another alphabet", func(b *Bundle) { b.queries[2] = Compile(WellFormed(alphabet.New("a", "b", "c"))) },
			"compiled over 3 symbols, alphabet has 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := plannedGoldenBundle(t)
			tc.mutate(b)
			rep, err := VetBytes(b.Marshal())
			if err == nil {
				t.Fatalf("VetBytes accepted the bundle:\n%s", rep)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
