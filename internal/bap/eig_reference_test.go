package bap

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gameauthority/internal/prng"
)

// refEIG is the EIG the flat kernel replaced, kept as its oracle: the tree
// is a map from label path (one byte per processor) to a string value, a
// pair is validated by a map lookup, and a node resolves by a pairwise
// count of strings over its children. The kernel stores interned ids, so
// the comparisons map them back to bytes through the pool that issued
// them.
type refEIG struct {
	id, n, f int
	valid    map[string]bool // every distinct-processor label up to length f+1
	tree     map[string]string
}

// refPair is a pair in transit; bad marks a value id the kernel's id map
// does not cover, which both sides drop.
type refPair struct {
	label string
	val   string
	bad   bool
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

func newRefEIG(id, n, f int, labels []string, initial string) *refEIG {
	r := &refEIG{id: id, n: n, f: f, valid: map[string]bool{}, tree: map[string]string{"": initial}}
	for _, label := range labels {
		r.valid[label] = true
	}
	return r
}

func (r *refEIG) roundPairs(round int) []refPair {
	var out []refPair
	for label, v := range r.tree {
		if len(label) == round && !refContains(label, r.id) {
			out = append(out, refPair{label: label, val: v})
		}
	}
	return out
}

func (r *refEIG) absorb(round, from int, pairs []refPair) {
	for _, p := range pairs {
		if p.bad || round > r.f || len(p.label) != round || !r.valid[p.label] || refContains(p.label, from) {
			continue
		}
		child := p.label + string(byte(from))
		if _, ok := r.tree[child]; !ok {
			r.tree[child] = p.val
		}
	}
}

func (r *refEIG) resolve(label string) string {
	if len(label) == r.f+1 {
		return r.tree[label] // the default when absent
	}
	var kids []string
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
	return ""
}

// sameTree holds the kernel's stored nodes to the reference's tree. A
// decision alone would hide a wrong stored value: Byzantine-sourced
// leaves are outvoted by design.
func sameTree(t *testing.T, labels []string, pool *valuePool, k *EIG, r *refEIG) {
	t.Helper()
	for i, label := range labels {
		v, ok := r.tree[label]
		if k.set[i] != ok || (ok && string(pool.value(k.vals[i])) != v) {
			t.Fatalf("processor %d node %q: kernel (%v, %q), reference (%v, %q)", k.id, label, k.set[i], pool.value(k.vals[i]), ok, v)
		}
	}
}

// toRef translates kernel pairs to labels and strings; an index off the
// layout becomes a label no tree has, and a value id off the pool a pair
// the reference drops.
func toRef(labels []string, pool *valuePool, pairs []Pair) []refPair {
	out := make([]refPair, len(pairs))
	for i, p := range pairs {
		label := "\xff"
		if p.Node >= 0 && int(p.Node) < len(labels) {
			label = labels[p.Node]
		}
		if int(p.Val) >= len(pool.ends) {
			out[i] = refPair{label: label, bad: true}
			continue
		}
		out[i] = refPair{label: label, val: string(pool.value(p.Val))}
	}
	return out
}

// forgeRound is what Byzantine processor from sends one destination in
// one round: silence, the honest pairs, or the honest pairs with values
// equivocated and some dropped, plus raw indexes the kernel must drop —
// negative, past the end, on another level, naming the sender — a value id
// off the pool, and a second claim on a node already sent, all shuffled.
// Values are interned into pool; a flood instead sends every pair with a
// value never seen before.
func forgeRound(src *prng.Source, pool *valuePool, flood bool, lay *eigLayout, round, from int, honest []Pair) []Pair {
	var out []Pair
	if flood {
		for _, p := range honest {
			out = append(out, Pair{Node: p.Node, Val: pool.intern(fmt.Appendf(nil, "flood-%d", src.Uint64()))})
		}
	} else {
		switch src.Uint64() % 4 {
		case 0:
			return nil
		case 1:
			return honest
		}
		for _, p := range honest {
			switch src.Uint64() % 4 {
			case 0: // dropped
			case 1:
				out = append(out, p)
			default:
				out = append(out, Pair{Node: p.Node, Val: pool.intern(fmt.Appendf(nil, "x%d", src.Uint64()%3))})
			}
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
		out = append(out, Pair{Node: node, Val: pool.intern([]byte("junk"))})
	}
	if len(honest) > 0 {
		out = append(out, Pair{Node: honest[0].Node, Val: uint32(len(pool.ends)) + uint32(src.Uint64()%8)})
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(src.Uint64() % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestEIGMatchesReference runs the flat kernel and the string-valued
// reference side by side — one agreement per source, n processors each —
// on seeded Byzantine traffic (equivocating sources and relays, silence,
// malformed indexes and value ids), and requires every honest processor
// to decide the same vector in both, and the honest processors to agree.
// The kernels share one pool, so one id space, as an engine's do within a
// phase. The flood case has the f Byzantine processors send a value never
// seen before in every pair, so the pool grows far past what a fault-free
// phase needs; the fault-free phase after it must not allocate.
func TestEIGMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		n, f, seeds int
		flood       bool
	}{{4, 1, 16, false}, {7, 2, 8, false}, {10, 2, 3, false}, {7, 2, 4, true}} {
		n, f := tc.n, tc.f
		name := fmt.Sprintf("n%df%d", n, f)
		if tc.flood {
			name += "-flood"
		}
		t.Run(name, func(t *testing.T) {
			labels := refLabels(n, f)
			pool := new(valuePool)
			*pool = newValuePool(n + 1)
			kern := make([]*EIG, n)
			for p := range kern {
				var err error
				if kern[p], err = NewEIG(p, n, f, 0); err != nil {
					t.Fatal(err)
				}
			}
			for seed := uint64(0); seed < uint64(tc.seeds); seed++ {
				src := prng.New(seed)
				byz := map[int]bool{}
				for len(byz) < f {
					byz[int(src.Uint64()%uint64(n))] = true
				}
				vecs := make([][]string, n)
				for s := 0; s < n; s++ {
					pool.reset()
					ref := make([]*refEIG, n)
					initial := fmt.Sprintf("v%d", s)
					if byz[s] {
						initial = fmt.Sprintf("lie%d", src.Uint64()%3)
					}
					for p := range kern {
						kern[p].Reset(pool.intern([]byte(initial)))
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
									forged := forgeRound(src, pool, tc.flood, kern[from].lay, round, from, sent[from])
									kern[to].Absorb(round, from, forged, identity(len(pool.ends)))
									ref[to].absorb(round, from, toRef(labels, pool, forged))
								} else {
									kern[to].Absorb(round, from, sent[from], identity(len(pool.ends)))
									ref[to].absorb(round, from, refSent[from])
								}
							}
						}
						for p, k := range kern {
							sameTree(t, labels, pool, k, ref[p])
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
						if want := ref[p].resolve(""); string(pool.value(got)) != want {
							t.Fatalf("seed %d source %d processor %d: kernel decided %q, reference %q", seed, s, p, pool.value(got), want)
						}
						vecs[p] = append(vecs[p], string(pool.value(got)))
					}
				}
				var agreed []string
				for p, vec := range vecs {
					if byz[p] {
						continue
					}
					if agreed == nil {
						agreed = vec
					}
					for s := range vec {
						if vec[s] != agreed[s] || (!byz[s] && vec[s] != fmt.Sprintf("v%d", s)) {
							t.Fatalf("seed %d: processor %d vector %q, first honest %q", seed, p, vec, agreed)
						}
					}
				}
			}
			if !tc.flood {
				return
			}
			// The fault-free phase after the flood: the same kernels and
			// pool, every processor honest.
			ids := identity(len(pool.ends))
			sent := make([][]Pair, n)
			for p := range sent {
				sent[p] = make([]Pair, 0, kern[p].MaxRoundPairs())
			}
			initial := []byte("v0")
			allocs := testing.AllocsPerRun(20, func() {
				pool.reset()
				for _, k := range kern {
					k.Reset(pool.intern(initial))
				}
				for round := 0; round < Rounds(f); round++ {
					for p, k := range kern {
						sent[p] = k.AppendRoundMessages(round, sent[p][:0])
					}
					for _, k := range kern {
						for from := range kern {
							k.Absorb(round, from, sent[from], ids)
						}
						k.EndRound()
					}
				}
			})
			for p, k := range kern {
				if got, _ := k.Decision(); string(pool.value(got)) != "v0" {
					t.Fatalf("processor %d decided %q after the flood, want v0", p, pool.value(got))
				}
			}
			if allocs != 0 {
				t.Fatalf("a fault-free phase after the flood allocates %v times, want 0", allocs)
			}
		})
	}
}
