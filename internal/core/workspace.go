package core

import (
	"sync"

	"gameauthority/internal/audit"
	"gameauthority/internal/commit"
	"gameauthority/internal/game"
)

// workspace is the working set of one play: the shell's result scratch
// and, for the pure kind, the engine's evidence and outcome buffers. Only
// a play under the session lock touches it, so a session NewSession built
// holds none between plays: PlayN borrows one from the free list and
// gives it back once the history ring has copied the play out. Sessions
// of one kind and player count share the workspaces they borrow; every
// play writes what it reads of one first, so which workspace a play gets
// can never show in a transcript.
type workspace struct {
	shape workspaceShape

	// result is the scratch the engine writes a play into; its Excluded,
	// the agents excluded before the play, is the exclusion snapshot.
	result RoundResult

	// The pure engine's scratch (see PureSession.play), sized to n; enc
	// and the opening value buffers amortize to steady state after the
	// first play, and prevView is made only for a non-honest agent.
	commitments []commit.Digest
	openings    []commit.Opening
	revealed    []bool
	chosen      game.Profile
	outcome     game.Profile
	actions     game.Profile
	costs       []float64
	excluded    []int
	prevView    game.Profile
	enc         []byte
	verdict     audit.Verdict
}

// workspaceShape keys the free list: a workspace serves plays of one kind
// and player count. A kind's engine writes the same result fields on
// every play, so keying by kind keeps one engine from appending into a
// slice another engine left aliased there.
type workspaceShape struct {
	kind SessionKind
	n    int
}

// workspaces is the free list: the workspaces no play holds, a stack per
// shape. It holds at most as many workspaces of a shape as plays of that
// shape ever ran at once. It is not a sync.Pool: the pool drops items at
// random under the race detector, and the zero-allocation play gates must
// hold there too.
var workspaces = struct {
	mu   sync.Mutex
	free map[workspaceShape][]*workspace
}{free: make(map[workspaceShape][]*workspace)}

// takeWorkspace lends a workspace for plays of the given kind and player
// count, making one when none is free.
func takeWorkspace(kind SessionKind, n int) *workspace {
	shape := workspaceShape{kind, n}
	workspaces.mu.Lock()
	if stack := workspaces.free[shape]; len(stack) > 0 {
		w := stack[len(stack)-1]
		stack[len(stack)-1] = nil
		workspaces.free[shape] = stack[:len(stack)-1]
		workspaces.mu.Unlock()
		return w
	}
	workspaces.mu.Unlock()
	w := &workspace{shape: shape}
	if kind == KindPure {
		w.commitments = make([]commit.Digest, n)
		w.openings = make([]commit.Opening, n)
		w.revealed = make([]bool, n)
		w.chosen = make(game.Profile, n)
		w.outcome = make(game.Profile, n)
		w.actions = make(game.Profile, n)
		w.costs = make([]float64, n)
	}
	return w
}

// release gives w back to the free list; its borrower must not touch it
// after.
func (w *workspace) release() {
	workspaces.mu.Lock()
	workspaces.free[w.shape] = append(workspaces.free[w.shape], w)
	workspaces.mu.Unlock()
}
