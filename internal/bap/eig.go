package bap

import (
	"errors"
	"fmt"
	"sync"
)

// Value is an agreement value. Protocol payloads are canonically encoded
// strings so values are comparable and hashable.
type Value string

// DefaultValue is the fallback decision when no majority emerges.
const DefaultValue Value = ""

// Common errors.
var (
	ErrConfig     = errors.New("bap: invalid configuration")
	ErrNotDecided = errors.New("bap: protocol has not terminated")
)

// Rounds returns the number of communication rounds EIG needs: f+1.
func Rounds(f int) int { return f + 1 }

// Cost is the closed-form size of one interactive-consistency phase at
// (n, f): the EIG tree's Σₖ₌₀^{f+1} n!/(n−k)! nodes, held by n instances
// on each of n processors. No layout is built, so a door can price a
// shape before paying for it. A float, so an absurd shape prices as huge
// instead of overflowing; every shape worth building is exact.
func Cost(n, f int) float64 {
	nodes, level := 1.0, 1.0
	for k := 0; k <= f && k < n && level < 1e18; k++ {
		level *= float64(n - k)
		nodes += level
	}
	return nodes * float64(n) * float64(n)
}

// eigLayout is the shared, immutable shape of the EIG tree for one (n, f)
// pair: every distinct-processor label up to length f+1, enumerated level
// by level in lexicographic order, with precomputed label strings, a
// label→index map (string lookups on a prebuilt map do not allocate), and
// per-node child tables. Building it costs one burst of allocations; it is
// cached process-wide so every EIG instance at the same (n, f) shares it —
// the instance state shrinks to flat value/seen arrays over these indices,
// which is what makes the per-pulse protocol work allocation-free.
type eigLayout struct {
	n, f       int
	labels     []string         // node index → label path
	index      map[string]int32 // label → node index
	levelStart []int32          // level L occupies [levelStart[L], levelStart[L+1])
	child      [][]int32        // node index → per-processor child index (-1: none)
}

var layoutCache sync.Map // [2]int{n, f} → *eigLayout

// layoutFor returns the cached layout for (n, f), building it on first use.
func layoutFor(n, f int) *eigLayout {
	key := [2]int{n, f}
	if v, ok := layoutCache.Load(key); ok {
		return v.(*eigLayout)
	}
	lay := buildLayout(n, f)
	actual, _ := layoutCache.LoadOrStore(key, lay)
	return actual.(*eigLayout)
}

// buildLayout enumerates the distinct-id labels level by level. Within a
// level, parents are visited in index (= lexicographic) order and children
// appended in processor order, so same-length labels are lexicographically
// sorted by construction — AppendRoundMessages inherits sortedness for free.
func buildLayout(n, f int) *eigLayout {
	lay := &eigLayout{n: n, f: f, index: make(map[string]int32)}
	lay.labels = append(lay.labels, "")
	lay.index[""] = 0
	lay.levelStart = append(lay.levelStart, 0, 1)
	for level := 0; level <= f; level++ {
		for i := lay.levelStart[level]; i < lay.levelStart[level+1]; i++ {
			label := lay.labels[i]
			for j := 0; j < n; j++ {
				if labelContains(label, j) {
					continue
				}
				child := label + string(byte(j))
				lay.index[child] = int32(len(lay.labels))
				lay.labels = append(lay.labels, child)
			}
		}
		lay.levelStart = append(lay.levelStart, int32(len(lay.labels)))
	}
	lay.child = make([][]int32, len(lay.labels))
	flat := make([]int32, len(lay.labels)*n)
	for i := range flat {
		flat[i] = -1
	}
	for i, label := range lay.labels {
		lay.child[i] = flat[i*n : (i+1)*n]
		if len(label) > f {
			continue // leaves have no children
		}
		for j := 0; j < n; j++ {
			if labelContains(label, j) {
				continue
			}
			lay.child[i][j] = lay.index[label+string(byte(j))]
		}
	}
	return lay
}

// nodes returns the total node count.
func (l *eigLayout) nodes() int { return len(l.labels) }

// level returns the [start, end) node range of one tree level.
func (l *eigLayout) level(lv int) (int32, int32) {
	return l.levelStart[lv], l.levelStart[lv+1]
}

// EIG is one processor's state in a single EIG agreement instance.
// It is a pure state machine: the caller moves messages between instances
// (the IC engine in ic.go runs n of them per processor).
//
// State is a pair of flat arrays indexed by the shared layout — no maps,
// no per-round allocation: Absorb, RoundMessages (via AppendRoundMessages)
// and EndRound run allocation-free once the instance exists.
type EIG struct {
	id, n, f int
	round    int // completed rounds
	lay      *eigLayout
	vals     []Value // node index → stored value
	set      []bool  // node index → value present
	res      []Value // resolve scratch (bottom-up majorities)
	decided  bool
	decision Value
}

// Pair is one EIG tree entry in transit: the label path and the value the
// sender stores for it.
type Pair struct {
	Label string
	Val   Value
}

// NewEIG creates processor id's state for one agreement on initial.
// Requires n > 3f (the LSP bound) and 0 ≤ id < n.
func NewEIG(id, n, f int, initial Value) (*EIG, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("%w: n=%d must exceed 3f=%d", ErrConfig, n, 3*f)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("%w: id=%d out of range", ErrConfig, id)
	}
	e := &EIG{id: id, n: n, f: f, lay: layoutFor(n, f)}
	nodes := e.lay.nodes()
	e.vals = make([]Value, nodes)
	e.set = make([]bool, nodes)
	e.res = make([]Value, nodes)
	e.Reset(initial)
	return e, nil
}

// Reset rewinds the instance to a fresh agreement on initial, reusing all
// backing arrays (no allocation). Composition layers that run one agreement
// per phase (the distributed driver's IC) reset instead of reallocating.
func (e *EIG) Reset(initial Value) {
	for i := range e.set {
		e.set[i] = false
	}
	for i := range e.vals {
		e.vals[i] = DefaultValue
	}
	e.round = 0
	e.decided = false
	e.decision = DefaultValue
	e.vals[0] = initial
	e.set[0] = true
}

// labelContains reports whether the label path includes processor j.
func labelContains(label string, j int) bool {
	for i := 0; i < len(label); i++ {
		if int(label[i]) == j {
			return true
		}
	}
	return false
}

// AppendRoundMessages appends to dst the pairs processor id must
// broadcast in the given round (0-based): all tree nodes at level ==
// round whose label does not contain id, in label order. Every processor
// receives the same pairs (honest behaviour). With a pre-sized dst the
// call does not allocate.
func (e *EIG) AppendRoundMessages(round int, dst []Pair) []Pair {
	if round < 0 || round > e.f+1 {
		return dst
	}
	start, end := e.lay.level(round)
	for i := start; i < end; i++ {
		if !e.set[i] || labelContains(e.lay.labels[i], e.id) {
			continue
		}
		dst = append(dst, Pair{Label: e.lay.labels[i], Val: e.vals[i]})
	}
	return dst
}

// MaxRoundPairs returns an upper bound on the pairs AppendRoundMessages
// can produce in any single round — the widest tree level. Callers size
// their reusable buffers with it.
func (e *EIG) MaxRoundPairs() int {
	max := 0
	for lv := 0; lv < len(e.lay.levelStart)-1; lv++ {
		if w := int(e.lay.levelStart[lv+1] - e.lay.levelStart[lv]); w > max {
			max = w
		}
	}
	return max
}

// Absorb ingests the pairs received from processor `from` in the given
// round: pair (L, v) becomes node L·from provided the label has the right
// level and does not already contain `from`. First writer wins; labels
// outside the distinct-processor tree (Byzantine garbage) are dropped.
func (e *EIG) Absorb(round, from int, pairs []Pair) {
	if from < 0 || from >= e.n {
		return
	}
	for _, p := range pairs {
		if len(p.Label) != round || labelContains(p.Label, from) {
			continue
		}
		idx, ok := e.lay.index[p.Label]
		if !ok {
			continue
		}
		child := e.lay.child[idx][from]
		if child < 0 || e.set[child] {
			continue // leaf level, or first writer already won
		}
		e.vals[child] = p.Val
		e.set[child] = true
	}
}

// EndRound marks a communication round complete. After Rounds(f) rounds the
// instance resolves and decides.
func (e *EIG) EndRound() {
	e.round++
	if e.round >= Rounds(e.f) && !e.decided {
		e.decision = e.resolve()
		e.decided = true
	}
}

// Decided reports termination, and Decision returns the agreed value.
func (e *EIG) Decided() bool { return e.decided }

// Decision returns the decided value or ErrNotDecided.
func (e *EIG) Decision() (Value, error) {
	if !e.decided {
		return DefaultValue, ErrNotDecided
	}
	return e.decision, nil
}

// resolve computes the recursive majority ("resolve") of the EIG tree,
// bottom-up over the flat layout: leaves resolve to their stored value (or
// the default), inner nodes to the strict majority of their children's
// resolutions. A strict majority is unique, so the pairwise count below is
// order-independent and needs no map.
func (e *EIG) resolve() Value {
	start, end := e.lay.level(e.f + 1)
	for i := start; i < end; i++ {
		if e.set[i] {
			e.res[i] = e.vals[i]
		} else {
			e.res[i] = DefaultValue
		}
	}
	for lv := e.f; lv >= 0; lv-- {
		start, end := e.lay.level(lv)
		for i := start; i < end; i++ {
			children := e.lay.child[i]
			total := 0
			for j := 0; j < e.n; j++ {
				if children[j] >= 0 {
					total++
				}
			}
			if total == 0 {
				if e.set[i] {
					e.res[i] = e.vals[i]
				} else {
					e.res[i] = DefaultValue
				}
				continue
			}
			e.res[i] = DefaultValue
			for j := 0; j < e.n; j++ {
				if children[j] < 0 {
					continue
				}
				v := e.res[children[j]]
				count := 0
				for k := 0; k < e.n; k++ {
					if children[k] >= 0 && e.res[children[k]] == v {
						count++
					}
				}
				if 2*count > total {
					e.res[i] = v
					break
				}
			}
		}
	}
	return e.res[0]
}

// TreeSize returns the number of stored tree nodes (for overhead metrics).
func (e *EIG) TreeSize() int {
	size := 0
	for _, s := range e.set {
		if s {
			size++
		}
	}
	return size
}
