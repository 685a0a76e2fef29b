package core

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
)

// --- Canonical wire encodings -------------------------------------------------
//
// Everything the processors agree on via the BAP travels as canonical
// bytes (bap.Value). The codec works over caller-owned buffers, so a
// processor encodes and parses its phase evidence in per-processor scratch:
// the Append* encoders append to a byte slice and the Parse* decoders read
// the agreed bytes in place and fill a destination whose capacity they
// reuse. Decoders treat malformed input as Byzantine garbage (error, never
// panic) and return fixed error values.

var (
	errBadProfile = fmt.Errorf("%w: malformed profile", ErrConfig)
	errBadDigest  = fmt.Errorf("%w: malformed digest", ErrConfig)
	errBadOpening = fmt.Errorf("%w: malformed opening", ErrConfig)
	errBadFoulSet = fmt.Errorf("%w: malformed foul set", ErrConfig)
)

// AppendProfile appends the canonical encoding of an action profile
// ("1,0,2") to dst; -1 entries (unknown actions) are preserved.
func AppendProfile(dst []byte, p game.Profile) []byte {
	for i, a := range p {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
	}
	return dst
}

// ParseProfile parses AppendProfile output of arity n into dst's storage
// and returns the profile: exactly n−1 commas, each entry a strconv.Atoi
// integer. On error it returns dst[:0].
func ParseProfile(dst game.Profile, s []byte, n int) (game.Profile, error) {
	dst = dst[:0]
	if n <= 0 {
		return dst, errBadProfile
	}
	for i := 0; i < n; i++ {
		part, rest, more := bytes.Cut(s, []byte{','})
		if more != (i < n-1) {
			return dst[:0], errBadProfile
		}
		a, err := strconv.Atoi(string(part))
		if err != nil {
			return dst[:0], errBadProfile
		}
		dst = append(dst, a)
		s = rest
	}
	return dst, nil
}

// AppendDigest appends the lowercase hex encoding of a commitment digest.
func AppendDigest(dst []byte, d commit.Digest) []byte {
	return hex.AppendEncode(dst, d[:])
}

// ParseDigest parses AppendDigest output.
func ParseDigest(s []byte) (commit.Digest, error) {
	var d commit.Digest
	if len(s) != 2*len(d) || !unhexInto(d[:], s) {
		return commit.Digest{}, errBadDigest
	}
	return d, nil
}

// AppendOpening appends the canonical encoding of a commitment opening,
// "<value-hex>|<nonce-hex>".
func AppendOpening(dst []byte, op commit.Opening) []byte {
	dst = hex.AppendEncode(dst, op.Value)
	dst = append(dst, '|')
	return hex.AppendEncode(dst, op.Nonce[:])
}

// ParseOpening parses AppendOpening output into op, reusing the capacity
// of op.Value: exactly one '|', lowercase hex of even length on both
// sides, and a nonce of commit.NonceSize bytes. On error op is left with
// an empty value and a zero nonce.
func ParseOpening(op *commit.Opening, s []byte) error {
	value, nonce, ok := bytes.Cut(s, []byte{'|'})
	op.Value = op.Value[:0]
	if !ok || bytes.IndexByte(nonce, '|') >= 0 || len(value)%2 != 0 ||
		len(nonce) != 2*commit.NonceSize || !unhexInto(op.Nonce[:], nonce) {
		op.Nonce = [commit.NonceSize]byte{}
		return errBadOpening
	}
	op.Value = slices.Grow(op.Value, len(value)/2)[:len(value)/2]
	if !unhexInto(op.Value, value) {
		op.Value = op.Value[:0]
		op.Nonce = [commit.NonceSize]byte{}
		return errBadOpening
	}
	return nil
}

// unhexInto decodes the lowercase hex s into dst (len(s) == 2*len(dst)),
// reporting whether every digit was valid.
func unhexInto(dst, s []byte) bool {
	for i := range dst {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

// AppendFoulSet appends the canonical encoding of the guilty agent ids
// ("1;3;4", nothing for none) — the value the judicial service agrees on
// before ordering punishment.
func AppendFoulSet(dst []byte, ids []int) []byte {
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ';')
		}
		dst = strconv.AppendInt(dst, int64(id), 10)
	}
	return dst
}

// ParseFoulSet parses AppendFoulSet output into dst's storage and returns
// the ids; no bytes is the empty set. On error it returns dst[:0].
func ParseFoulSet(dst []int, s []byte) ([]int, error) {
	dst = dst[:0]
	if len(s) == 0 {
		return dst, nil
	}
	for more := true; more; {
		var part []byte
		part, s, more = bytes.Cut(s, []byte{';'})
		id, err := strconv.Atoi(string(part))
		if err != nil {
			return dst[:0], errBadFoulSet
		}
		dst = append(dst, id)
	}
	return dst, nil
}
