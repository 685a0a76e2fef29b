package core

import "slices"

// clone deep-copies a processor's record of a play.
func (r *DistRound) clone() DistRound {
	return DistRound{Pulse: r.Pulse, Outcome: r.Outcome.Clone(), Guilty: slices.Clone(r.Guilty)}
}

// plant makes p's record of its i-th play since the last fault read as r:
// the print ring's slot, or, with newest, the newest play kept in full and
// not its print. It is how a test checks that ConsistentResults compares
// every part of what a processor keeps.
func (p *DistProcessor) plant(i int, r DistRound, newest bool) {
	if newest {
		p.last = r
		return
	}
	p.prints[i%printRing] = playPrint{r.Pulse, fingerprint(r.Outcome, r.Guilty)}
}
