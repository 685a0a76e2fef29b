package bap

import (
	"bytes"
	"hash/maphash"
)

// Value is an agreement value: the canonical bytes of a protocol payload.
// IC interns every value it sees, so the EIG trees hold 4-byte ids and
// compare ids where they would compare bytes. The empty value is the
// default, the decision when no majority emerges.
type Value []byte

// noID is what a sender's value id translates to when it names no bytes:
// its span lies outside the view's bytes (a forged view). Absorb drops a
// pair that carries it, as it drops an id outside the view.
const noID = ^uint32(0)

// valuePool interns one phase's agreement values: each distinct byte
// string gets exactly one id, in first-seen order, so id equality is byte
// equality and no decision depends on the numbering. Id 0 is the empty
// value, the default decision. The values sit back to back in buf, id i
// spanning buf[ends[i-1]:ends[i]] (and id 0 buf[:ends[0]], empty). Lookup
// goes through an open-addressed hash index of id+1 entries (0 is a free
// slot), kept at most half full by doubling, so interning stays linear in
// the bytes however many distinct values a Byzantine sender floods in.
//
// buf and ends only grow between resets, so a view taken earlier in the
// phase (see view) keeps naming the same bytes while the pool interns
// more; reset rewinds them, which is why IC rotates its pools.
type valuePool struct {
	seed  maphash.Seed
	buf   []byte
	ends  []uint32
	index []uint32
}

// newValuePool returns an empty pool whose index holds ids values before
// its first doubling.
func newValuePool(ids int) valuePool {
	size := 16
	for size < 2*ids {
		size *= 2
	}
	return valuePool{seed: maphash.MakeSeed(), ends: make([]uint32, 1, ids), index: make([]uint32, size)}
}

// reset empties the pool, keeping every backing array: the next intern
// reuses ids from 1.
func (p *valuePool) reset() {
	p.buf = p.buf[:0]
	p.ends = p.ends[:1]
	clear(p.index)
}

// value returns id's bytes; id must be one of the pool's. The slice is
// capped, so appending to it cannot reach the pool's other values.
func (p *valuePool) value(id uint32) Value {
	lo := uint32(0)
	if id > 0 {
		lo = p.ends[id-1]
	}
	hi := p.ends[id]
	return p.buf[lo:hi:hi]
}

// intern returns b's id, copying b into the pool the first time it is
// seen. b may alias the pool's own bytes.
func (p *valuePool) intern(b []byte) uint32 {
	if len(b) == 0 {
		return 0
	}
	mask := uint32(len(p.index) - 1)
	i := uint32(maphash.Bytes(p.seed, b)) & mask
	for ; p.index[i] != 0; i = (i + 1) & mask {
		if id := p.index[i] - 1; bytes.Equal(p.value(id), b) {
			return id
		}
	}
	id := uint32(len(p.ends))
	p.buf = append(p.buf, b...)
	p.ends = append(p.ends, uint32(len(p.buf)))
	p.index[i] = id + 1
	if 2*len(p.ends) > len(p.index) {
		p.grow()
	}
	return id
}

// grow doubles the index and re-files every non-empty id.
func (p *valuePool) grow() {
	p.index = make([]uint32, 2*len(p.index))
	mask := uint32(len(p.index) - 1)
	for id := uint32(1); id < uint32(len(p.ends)); id++ {
		i := uint32(maphash.Bytes(p.seed, p.value(id))) & mask
		for p.index[i] != 0 {
			i = (i + 1) & mask
		}
		p.index[i] = id + 1
	}
}

// poolView is a sender's pool as one of its messages saw it: the ids then
// assigned and the bytes they span, plus gen, which names the phase the
// pool served at the sender. A receiver reads only within the view, and
// the sender only appends past it until the pool rotates out.
type poolView struct {
	gen  uint64
	buf  []byte
	ends []uint32
}

// view snapshots the pool for a message of the phase gen.
func (p *valuePool) view(gen uint64) poolView {
	return poolView{gen: gen, buf: p.buf[:len(p.buf):len(p.buf)], ends: p.ends[:len(p.ends):len(p.ends)]}
}

// span returns the bytes the view gives id, one of its ids, or false when
// that span lies outside the view's bytes (a forged view).
func (v *poolView) span(id int) ([]byte, bool) {
	lo := uint32(0)
	if id > 0 {
		lo = v.ends[id-1]
	}
	hi := v.ends[id]
	if lo > hi || hi > uint32(len(v.buf)) {
		return nil, false
	}
	return v.buf[lo:hi], true
}
