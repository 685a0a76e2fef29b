package bap

import (
	"testing"
)

// splitValues cuts data into a value sequence: each value is a length
// byte (mod 17) followed by that many bytes, so the sequence can hold any
// bytes, the empty value and repeats.
func splitValues(data []byte) [][]byte {
	var vals [][]byte
	for len(data) > 0 {
		n := min(int(data[0])%17, len(data)-1)
		vals = append(vals, data[1:1+n])
		data = data[1+n:]
	}
	return vals
}

// FuzzValuePool holds the pool to a map on arbitrary value sequences: ids
// are equal exactly when the bytes are, new ids are handed out in
// first-seen order from 1 (the empty value is 0), a value's bytes come
// back unchanged — from the pool and through a view — however the caller's
// buffer changes afterwards, and a reset pool hands out the same ids again
// for the same sequence. The checked-in corpus is
// testdata/fuzz/FuzzValuePool.
func FuzzValuePool(f *testing.F) {
	f.Add([]byte("\x03abc\x03abc\x00\x02ab\x03abc"))
	f.Add([]byte("\x01a\x01b\x01c\x01d\x01e\x01f\x01g\x01h\x01i\x01j\x01k\x01l\x01m\x01n\x01o\x01p\x01q\x01a"))
	f.Fuzz(func(t *testing.T, data []byte) {
		buf := append([]byte(nil), data...)
		pool := newValuePool(4)
		vals := splitValues(buf)
		first := make([]uint32, len(vals))
		for round := 0; round < 2; round++ {
			pool.reset()
			byBytes := map[string]uint32{"": 0}
			byID := map[uint32]string{0: ""}
			for i, v := range vals {
				want := string(v)
				id := pool.intern(v)
				if old, seen := byBytes[want]; seen && old != id {
					t.Fatalf("value %d %q: id %d, earlier %d", i, want, id, old)
				} else if !seen {
					if int(id) != len(byBytes) {
						t.Fatalf("new value %d %q: id %d, want %d (first-seen order)", i, want, id, len(byBytes))
					}
					if other, taken := byID[id]; taken {
						t.Fatalf("value %d %q: id %d already names %q", i, want, id, other)
					}
					byBytes[want], byID[id] = id, want
				}
				if round == 0 {
					first[i] = id
				} else if id != first[i] {
					t.Fatalf("value %d %q: id %d after reset, %d before", i, want, id, first[i])
				}
			}
			if len(byID) != len(pool.ends) {
				t.Fatalf("%d distinct values, pool holds %d ids", len(byID), len(pool.ends))
			}
			// The pool owns copies: scribbling over the input changes nothing.
			for i := range buf {
				buf[i] ^= 0xff
			}
			view := pool.view(1)
			for id, want := range byID {
				if got := string(pool.value(id)); got != want {
					t.Fatalf("id %d: pool has %q, want %q", id, got, want)
				}
				if got, ok := view.span(int(id)); !ok || string(got) != want {
					t.Fatalf("id %d: view has %q (%v), want %q", id, got, ok, want)
				}
			}
			copy(buf, data)
		}
	})
}
