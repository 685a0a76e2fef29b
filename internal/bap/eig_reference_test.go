package bap

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gameauthority/internal/prng"
)

// refEIG is the EIG the flat kernel replaced, kept as its oracle: the tree
// is a map from label path (one byte per processor) to value, a pair is
// validated by a map lookup, and a node resolves by a pairwise count over
// its children.
type refEIG struct {
	id, n, f int
	valid    map[string]bool // every distinct-processor label up to length f+1
	tree     map[string]Value
}

type refPair struct {
	label string
	val   Value
}

func refContains(label string, j int) bool { return strings.IndexByte(label, byte(j)) >= 0 }

// refLabels lists the labels in the order the flat layout numbers its
// nodes: level by level, each level lexicographic.
func refLabels(n, f int) []string {
	labels, start := []string{""}, 0
	for lv := 0; lv <= f; lv++ {
		end := len(labels)
		for _, label := range labels[start:end] {
			for j := 0; j < n; j++ {
				if !refContains(label, j) {
					labels = append(labels, label+string(byte(j)))
				}
			}
		}
		start = end
	}
	return labels
}

func newRefEIG(id, n, f int, labels []string, initial Value) *refEIG {
	r := &refEIG{id: id, n: n, f: f, valid: map[string]bool{}, tree: map[string]Value{"": initial}}
	for _, label := range labels {
		r.valid[label] = true
	}
	return r
}

func (r *refEIG) roundPairs(round int) []refPair {
	var out []refPair
	for label, v := range r.tree {
		if len(label) == round && !refContains(label, r.id) {
			out = append(out, refPair{label, v})
		}
	}
	return out
}

func (r *refEIG) absorb(round, from int, pairs []refPair) {
	for _, p := range pairs {
		if round > r.f || len(p.label) != round || !r.valid[p.label] || refContains(p.label, from) {
			continue
		}
		child := p.label + string(byte(from))
		if _, ok := r.tree[child]; !ok {
			r.tree[child] = p.val
		}
	}
}

func (r *refEIG) resolve(label string) Value {
	if len(label) == r.f+1 {
		return r.tree[label] // the default when absent
	}
	var kids []Value
	for j := 0; j < r.n; j++ {
		if !refContains(label, j) {
			kids = append(kids, r.resolve(label+string(byte(j))))
		}
	}
	for _, v := range kids {
		count := 0
		for _, w := range kids {
			if w == v {
				count++
			}
		}
		if 2*count > len(kids) {
			return v
		}
	}
	return DefaultValue
}

// sameTree holds the kernel's stored nodes to the reference's tree. A
// decision alone would hide a wrong stored value: Byzantine-sourced
// leaves are outvoted by design.
func sameTree(t *testing.T, labels []string, k *EIG, r *refEIG) {
	t.Helper()
	for i, label := range labels {
		v, ok := r.tree[label]
		if k.set[i] != ok || (ok && k.vals[i] != v) {
			t.Fatalf("processor %d node %q: kernel (%v, %q), reference (%v, %q)", k.id, label, k.set[i], k.vals[i], ok, v)
		}
	}
}

// toRef translates kernel pairs to labels; an index off the layout becomes
// a label no tree has.
func toRef(labels []string, pairs []Pair) []refPair {
	out := make([]refPair, len(pairs))
	for i, p := range pairs {
		label := "\xff"
		if p.Node >= 0 && int(p.Node) < len(labels) {
			label = labels[p.Node]
		}
		out[i] = refPair{label, p.Val}
	}
	return out
}

// forgeRound is what Byzantine processor from sends one destination in
// one round: silence, the honest pairs, or the honest pairs with values
// equivocated and some dropped, plus raw indexes the kernel must drop —
// negative, past the end, on another level, naming the sender — and a
// second claim on a node already sent, all shuffled.
func forgeRound(src *prng.Source, lay *eigLayout, round, from int, honest []Pair) []Pair {
	switch src.Uint64() % 4 {
	case 0:
		return nil
	case 1:
		return honest
	}
	var out []Pair
	for _, p := range honest {
		switch src.Uint64() % 4 {
		case 0: // dropped
		case 1:
			out = append(out, p)
		default:
			out = append(out, Pair{Node: p.Node, Val: Value(fmt.Sprintf("x%d", src.Uint64()%3))})
		}
	}
	nodes := int32(lay.nodes())
	pick := func(lv int) int32 {
		start, end := lay.level(lv)
		return start + int32(src.Uint64()%uint64(end-start))
	}
	junk := []int32{-1, -2 - int32(src.Uint64()%1000), nodes, nodes + int32(src.Uint64()%1000),
		math.MaxInt32, math.MinInt32, pick(round + 1)}
	if round > 0 {
		junk = append(junk, pick(round-1))
		for i := pick(round); ; i = pick(round) {
			if lay.members[i]&(1<<from) != 0 {
				junk = append(junk, i)
				break
			}
		}
	}
	if len(honest) > 0 {
		junk = append(junk, honest[src.Uint64()%uint64(len(honest))].Node)
	}
	for _, node := range junk {
		out = append(out, Pair{Node: node, Val: "junk"})
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(src.Uint64() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestEIGMatchesReference runs the flat kernel and the string-labelled
// reference side by side — one agreement per source, n processors each —
// on seeded Byzantine traffic (equivocating sources and relays, silence,
// malformed indexes), and requires every honest processor to decide the
// same vector in both, and the honest processors to agree.
func TestEIGMatchesReference(t *testing.T) {
	for _, shape := range [][3]int{{4, 1, 16}, {7, 2, 8}, {10, 2, 3}} {
		n, f, seeds := shape[0], shape[1], shape[2]
		t.Run(fmt.Sprintf("n%df%d", n, f), func(t *testing.T) {
			labels := refLabels(n, f)
			for seed := uint64(0); seed < uint64(seeds); seed++ {
				src := prng.New(seed)
				byz := map[int]bool{}
				for len(byz) < f {
					byz[int(src.Uint64()%uint64(n))] = true
				}
				vecs := make([][]Value, n)
				for s := 0; s < n; s++ {
					kern, ref := make([]*EIG, n), make([]*refEIG, n)
					for p := range kern {
						initial := Value(fmt.Sprintf("v%d", s))
						if byz[s] {
							initial = Value(fmt.Sprintf("lie%d", src.Uint64()%3))
						}
						var err error
						if kern[p], err = NewEIG(p, n, f, initial); err != nil {
							t.Fatal(err)
						}
						ref[p] = newRefEIG(p, n, f, labels, initial)
					}
					for round := 0; round < Rounds(f); round++ {
						sent, refSent := make([][]Pair, n), make([][]refPair, n)
						for p := range kern {
							sent[p] = kern[p].AppendRoundMessages(round, nil)
							refSent[p] = ref[p].roundPairs(round)
						}
						for to := range kern {
							for from := range kern {
								if byz[from] {
									forged := forgeRound(src, kern[from].lay, round, from, sent[from])
									kern[to].Absorb(round, from, forged)
									ref[to].absorb(round, from, toRef(labels, forged))
								} else {
									kern[to].Absorb(round, from, sent[from])
									ref[to].absorb(round, from, refSent[from])
								}
							}
						}
						for p, k := range kern {
							sameTree(t, labels, k, ref[p])
							k.EndRound()
						}
					}
					for p := range kern {
						if byz[p] {
							continue
						}
						got, err := kern[p].Decision()
						if err != nil {
							t.Fatal(err)
						}
						if want := ref[p].resolve(""); got != want {
							t.Fatalf("seed %d source %d processor %d: kernel decided %q, reference %q", seed, s, p, got, want)
						}
						vecs[p] = append(vecs[p], got)
					}
				}
				var agreed []Value
				for p, vec := range vecs {
					if byz[p] {
						continue
					}
					if agreed == nil {
						agreed = vec
					}
					for s := range vec {
						if vec[s] != agreed[s] || (!byz[s] && vec[s] != Value(fmt.Sprintf("v%d", s))) {
							t.Fatalf("seed %d: processor %d vector %q, first honest %q", seed, p, vec, agreed)
						}
					}
				}
			}
		})
	}
}
