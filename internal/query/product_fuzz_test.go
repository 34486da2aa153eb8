package query

import (
	"fmt"
	"sync"
	"testing"
)

// fuzzProduct is one cached product-fuzz subject: the member subset selected
// by a mask byte, product-compiled, next to the members' own runners.
type fuzzProduct struct {
	p       *CompiledProduct
	members []*Compiled
}

var (
	fuzzProdMu   sync.Mutex
	fuzzProds    = map[uint16]*fuzzProduct{}
	fuzzFamilies [2][]*Compiled
	fuzzFamOnce  sync.Once
)

// fuzzFamily returns the fixed query families the mask byte selects from:
// family 0 is the mix from detProductMembers, family 1 the linear-order trio
// from orderProductMembers, whose products compact their return tables to
// fewer hierarchical columns than states.
func fuzzFamily(which int) []*Compiled {
	fuzzFamOnce.Do(func() {
		fuzzFamilies[0], _ = detProductMembers()
		fuzzFamilies[1], _ = orderProductMembers()
	})
	return fuzzFamilies[which%2]
}

// fuzzProductFor compiles (and caches) the product of the family members
// whose bits are set in mask, checking on first build that its state count
// is exactly the budget it needs and that every (lin, hier, sym) of its
// factored return table is the members' componentwise return step.  Returns nil when fewer than one member is
// selected.
func fuzzProductFor(t testing.TB, which int, mask uint8) *fuzzProduct {
	key := uint16(which%2)<<8 | uint16(mask)
	fuzzProdMu.Lock()
	defer fuzzProdMu.Unlock()
	if p, ok := fuzzProds[key]; ok {
		return p
	}
	family := fuzzFamily(which)
	var members []*Compiled
	for j, q := range family {
		if mask&(1<<j) != 0 {
			members = append(members, q)
		}
	}
	if len(members) == 0 {
		fuzzProds[key] = nil
		return nil
	}
	p, err := CompileProduct(members, 0)
	if err != nil {
		t.Fatalf("family %d, mask %08b: CompileProduct: %v", which%2, mask, err)
	}
	name := fmt.Sprintf("family %d, mask %08b", which%2, mask)
	checkBudgetExact(t, name, members, p)
	checkProductReturns(t, name, members)
	fp := &fuzzProduct{p: p, members: members}
	fuzzProds[key] = fp
	return fp
}

// FuzzProductDifferential drives a product runner and its members' own
// runners through the same arbitrary word — decoded from bytes exactly like
// FuzzNNWARunnerDifferential, so pending calls/returns and out-of-alphabet
// symbols all occur — and demands identical demuxed verdicts after every
// prefix.  The mask byte picks which family members join the product, so the
// subset structure of the accept bitmask is fuzzed too.
func FuzzProductDifferential(f *testing.F) {
	f.Add(uint8(0), uint8(0b11111), []byte{})
	f.Add(uint8(0), uint8(0b101), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(1), uint8(0b111), []byte{0, 0, 4, 2, 2, 5})
	f.Add(uint8(1), uint8(0b11), []byte{2, 5, 8, 1, 0, 2})
	f.Add(uint8(0), uint8(0b10010), []byte{6, 7, 8, 6, 7, 8})
	f.Fuzz(func(t *testing.T, which, mask uint8, word []byte) {
		if len(word) > 4096 {
			word = word[:4096] // bound stack depth and per-input runtime
		}
		fp := fuzzProductFor(t, int(which), mask)
		if fp == nil {
			t.Skip("empty member subset")
		}
		pr := fp.p.NewProductRunner()
		runners := make([]Runner, len(fp.members))
		for j, m := range fp.members {
			runners[j] = m.NewRunner()
		}
		for pos, b := range word {
			kind := int(b) % 3
			sym := int(b/3) % 3 // 0,1 are in-alphabet; 2 is the out-of-alphabet ID
			switch kind {
			case 0:
				pr.StepCall(sym)
			case 1:
				pr.StepInternal(sym)
			default:
				pr.StepReturn(sym)
			}
			for _, r := range runners {
				switch kind {
				case 0:
					r.StepCall(sym)
				case 1:
					r.StepInternal(sym)
				default:
					r.StepReturn(sym)
				}
			}
			for j, r := range runners {
				if pr.Verdict(j) != r.Accepting() {
					t.Fatalf("family %d, mask %08b, prefix %d: product member %d = %v, own runner = %v",
						which%2, mask, pos+1, j, pr.Verdict(j), r.Accepting())
				}
			}
		}
	})
}
