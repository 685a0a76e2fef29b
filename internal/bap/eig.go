package bap

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// Common errors.
var (
	ErrConfig     = errors.New("bap: invalid configuration")
	ErrNotDecided = errors.New("bap: protocol has not terminated")
)

// maxProcs is the widest network an EIG layout can describe: a node's
// label path is held as a uint64 member mask.
const maxProcs = 64

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
// by level in lexicographic order, so a node is just its index. A node at
// level L has n−L children, appended in processor order right after the
// children of the node before it, so they occupy a contiguous range found
// by arithmetic (see Absorb and resolve). Building it costs one burst of
// allocations; it is cached process-wide so every EIG instance at the
// same (n, f) shares it — the instance state shrinks to flat value/seen
// arrays over these indices, which is what makes the per-pulse protocol
// work allocation-free.
type eigLayout struct {
	n, f       int
	members    []uint64  // node index → the processors on its label path, as bits
	levelStart []int32   // level L occupies [levelStart[L], levelStart[L+1])
	send       [][]int32 // level·n + id → the level's nodes whose label excludes id
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
// sorted by construction and each parent's children are contiguous.
func buildLayout(n, f int) *eigLayout {
	lay := &eigLayout{n: n, f: f, members: []uint64{0}, levelStart: []int32{0, 1}}
	for lv := 0; lv <= f; lv++ {
		start, end := lay.level(lv)
		for i := start; i < end; i++ {
			for j := 0; j < n; j++ {
				if lay.members[i]&(1<<j) == 0 {
					lay.members = append(lay.members, lay.members[i]|1<<j)
				}
			}
		}
		lay.levelStart = append(lay.levelStart, int32(len(lay.members)))
	}
	lay.send = make([][]int32, (f+1)*n)
	for lv := 0; lv <= f; lv++ {
		start, end := lay.level(lv)
		for id := 0; id < n; id++ {
			var nodes []int32
			for i := start; i < end; i++ {
				if lay.members[i]&(1<<id) == 0 {
					nodes = append(nodes, i)
				}
			}
			lay.send[lv*n+id] = nodes
		}
	}
	return lay
}

// nodes returns the total node count.
func (l *eigLayout) nodes() int { return len(l.members) }

// level returns the [start, end) node range of one tree level.
func (l *eigLayout) level(lv int) (int32, int32) {
	return l.levelStart[lv], l.levelStart[lv+1]
}

// EIG is one processor's state in a single EIG agreement instance.
// It is a pure state machine: the caller moves messages between instances
// (the IC engine in ic.go runs n of them per processor).
//
// State is a pair of flat arrays indexed by the shared layout — no maps,
// no per-round allocation: Absorb, AppendRoundMessages and EndRound run
// allocation-free once the instance exists.
type EIG struct {
	id, n, f int
	round    int // completed rounds
	lay      *eigLayout
	vals     []uint32 // node index → stored value id, read only where set; resolve overwrites inner nodes
	set      []bool   // node index → value present
	decided  bool
	decision uint32
}

// Pair is one EIG tree entry in transit: the node of the shared (n, f)
// layout and the id of the value the sender stores for it, in the
// sender's id space.
type Pair struct {
	Node int32
	Val  uint32
}

// NewEIG creates processor id's state for one agreement on the value id
// initial. Value ids are the caller's (IC interns them per phase); id 0 is
// the default. Requires n > 3f (the LSP bound), n ≤ 64 and 0 ≤ id < n.
func NewEIG(id, n, f int, initial uint32) (*EIG, error) {
	if n <= 3*f {
		return nil, fmt.Errorf("%w: n=%d must exceed 3f=%d", ErrConfig, n, 3*f)
	}
	if n > maxProcs {
		return nil, fmt.Errorf("%w: n=%d exceeds %d", ErrConfig, n, maxProcs)
	}
	if id < 0 || id >= n {
		return nil, fmt.Errorf("%w: id=%d out of range", ErrConfig, id)
	}
	e := &EIG{id: id, n: n, f: f, lay: layoutFor(n, f)}
	nodes := e.lay.nodes()
	e.vals = make([]uint32, nodes)
	e.set = make([]bool, nodes)
	e.Reset(initial)
	return e, nil
}

// Reset rewinds the instance to a fresh agreement on initial, reusing all
// backing arrays (no allocation). Only the set flags are cleared: a value
// is never read where its flag is down. Composition layers that run one
// agreement per phase (the distributed driver's IC) reset instead of
// reallocating.
func (e *EIG) Reset(initial uint32) {
	clear(e.set)
	e.round = 0
	e.decided = false
	e.decision = 0
	e.vals[0] = initial
	e.set[0] = true
}

// AppendRoundMessages appends to dst the pairs processor id must
// broadcast in the given round (0-based): all stored tree nodes at level
// == round whose label does not contain id, in label order. Every
// processor receives the same pairs (honest behaviour). With a pre-sized
// dst the call does not allocate.
func (e *EIG) AppendRoundMessages(round int, dst []Pair) []Pair {
	if round < 0 || round > e.f {
		return dst
	}
	for _, i := range e.lay.send[round*e.n+e.id] {
		if e.set[i] {
			dst = append(dst, Pair{Node: i, Val: e.vals[i]})
		}
	}
	return dst
}

// MaxRoundPairs returns an upper bound on the pairs AppendRoundMessages
// can produce in any single round. Callers size their reusable buffers
// with it.
func (e *EIG) MaxRoundPairs() int {
	max := 0
	for lv := 0; lv <= e.f; lv++ {
		if w := len(e.lay.send[lv*e.n+e.id]); w > max {
			max = w
		}
	}
	return max
}

// Absorb ingests the pairs received from processor `from` in the given
// round: pair (node, v) becomes node·from, storing ids[v], provided the
// node is on level round and its label does not already contain `from`.
// ids maps the sender's value ids to this instance's. First writer wins;
// any other index, and a value id outside ids or mapped to noID
// (Byzantine garbage), is dropped.
func (e *EIG) Absorb(round, from int, pairs []Pair, ids []uint32) {
	if from < 0 || from >= e.n || round < 0 || round > e.f {
		return
	}
	start, end := e.lay.level(round)
	width := int32(e.n - round)
	bit := uint64(1) << from
	for _, p := range pairs {
		if p.Node < start || p.Node >= end {
			continue
		}
		members := e.lay.members[p.Node]
		if members&bit != 0 {
			continue
		}
		// node·from: the node's block of n−round children on the next
		// level (which starts at end), offset by from's rank among the
		// processors not on the label.
		child := end + (p.Node-start)*width + int32(from-bits.OnesCount64(members&(bit-1)))
		if e.set[child] || int(p.Val) >= len(ids) || ids[p.Val] == noID {
			continue // first writer already won, or no such value
		}
		e.vals[child] = ids[p.Val]
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

// Decision returns the decided value id or ErrNotDecided.
func (e *EIG) Decision() (uint32, error) {
	if !e.decided {
		return 0, ErrNotDecided
	}
	return e.decision, nil
}

// resolve computes the recursive majority ("resolve") of the EIG tree,
// bottom-up and in place over vals: leaves resolve to their stored value
// (or the default), inner nodes to the strict majority of their children's
// resolutions. Inner nodes' stored values are not needed once the last
// round is in, so each is overwritten by its resolution. Ids are equal
// exactly when their bytes are, so the majorities are the values'.
func (e *EIG) resolve() uint32 {
	start, end := e.lay.level(e.f + 1)
	for i := start; i < end; i++ {
		if !e.set[i] {
			e.vals[i] = 0
		}
	}
	for lv := e.f; lv >= 0; lv-- {
		start, end := e.lay.level(lv)
		width := int32(e.n - lv)
		first := e.lay.levelStart[lv+1]
		for i := start; i < end; i++ {
			e.vals[i] = majority(e.vals[first : first+width])
			first += width
		}
	}
	return e.vals[0]
}

// majority returns the strict majority of vs, or the default if there is
// none: a candidate pass, then a count. A strict majority is unique, so
// the candidate pass always finds it when it exists; when the candidate
// never lost a vote, every value is the candidate and the count is skipped.
func majority(vs []uint32) uint32 {
	cand, votes := uint32(0), 0
	for _, v := range vs {
		switch {
		case votes == 0:
			cand, votes = v, 1
		case v == cand:
			votes++
		default:
			votes--
		}
	}
	if votes == len(vs) {
		return cand
	}
	count := 0
	for _, v := range vs {
		if v == cand {
			count++
		}
	}
	if 2*count > len(vs) {
		return cand
	}
	return 0
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
