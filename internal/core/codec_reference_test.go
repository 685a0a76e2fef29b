package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
)

// The string-building evidence codec the distributed processor used before
// it encoded and parsed in scratch, kept verbatim as the oracle
// FuzzEvidenceCodec holds the Append*/Parse* codec to: identical bytes out,
// and the identical accept/reject set and decoded values in.

// EncodeProfile canonically encodes an action profile ("1,0,2"); -1 entries
// (unknown actions) are preserved.
func EncodeProfile(p game.Profile) string {
	parts := make([]string, len(p))
	for i, a := range p {
		parts[i] = strconv.Itoa(a)
	}
	return strings.Join(parts, ",")
}

// DecodeProfile parses EncodeProfile output; n is the required arity.
func DecodeProfile(s string, n int) (game.Profile, error) {
	if s == "" {
		return nil, fmt.Errorf("%w: empty profile", ErrConfig)
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("%w: profile arity %d, want %d", ErrConfig, len(parts), n)
	}
	p := make(game.Profile, n)
	for i, part := range parts {
		a, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%w: profile entry %q", ErrConfig, part)
		}
		p[i] = a
	}
	return p, nil
}

// EncodeDigest hex-encodes a commitment digest.
func EncodeDigest(d commit.Digest) string {
	const hexdigits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(d))
	for _, b := range d {
		out = append(out, hexdigits[b>>4], hexdigits[b&0xf])
	}
	return string(out)
}

// DecodeDigest parses EncodeDigest output.
func DecodeDigest(s string) (commit.Digest, error) {
	var d commit.Digest
	if len(s) != 2*len(d) {
		return d, fmt.Errorf("%w: digest hex length %d", ErrConfig, len(s))
	}
	for i := 0; i < len(d); i++ {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return d, fmt.Errorf("%w: digest hex at %d", ErrConfig, i)
		}
		d[i] = hi<<4 | lo
	}
	return d, nil
}

// EncodeOpening canonically encodes a commitment opening as
// "<value-hex>|<nonce-hex>".
func EncodeOpening(op commit.Opening) string {
	const hexdigits = "0123456789abcdef"
	enc := func(b []byte) string {
		out := make([]byte, 0, 2*len(b))
		for _, x := range b {
			out = append(out, hexdigits[x>>4], hexdigits[x&0xf])
		}
		return string(out)
	}
	return enc(op.Value) + "|" + enc(op.Nonce[:])
}

// DecodeOpening parses EncodeOpening output.
func DecodeOpening(s string) (commit.Opening, error) {
	var op commit.Opening
	parts := strings.Split(s, "|")
	if len(parts) != 2 {
		return op, fmt.Errorf("%w: opening has %d segments", ErrConfig, len(parts))
	}
	value, err := unhexBytes(parts[0])
	if err != nil {
		return op, err
	}
	nonce, err := unhexBytes(parts[1])
	if err != nil {
		return op, err
	}
	if len(nonce) != commit.NonceSize {
		return op, fmt.Errorf("%w: nonce length %d", ErrConfig, len(nonce))
	}
	op.Value = value
	copy(op.Nonce[:], nonce)
	return op, nil
}

func unhexBytes(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("%w: odd hex length", ErrConfig)
	}
	out := make([]byte, len(s)/2)
	for i := range out {
		hi, ok1 := unhex(s[2*i])
		lo, ok2 := unhex(s[2*i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("%w: bad hex", ErrConfig)
		}
		out[i] = hi<<4 | lo
	}
	return out, nil
}

// EncodeFoulSet canonically encodes the guilty agent ids ("1;3;4", "" for
// none) — the value the judicial service agrees on before ordering
// punishment.
func EncodeFoulSet(ids []int) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.Itoa(id)
	}
	return strings.Join(parts, ";")
}

// DecodeFoulSet parses EncodeFoulSet output.
func DecodeFoulSet(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%w: foul set entry %q", ErrConfig, p)
		}
		out = append(out, id)
	}
	return out, nil
}

// FuzzEvidenceCodec holds the scratch codec to the reference codec above
// on arbitrary input: s is parsed as each kind of evidence (profile of
// arity n, digest, opening, foul set) by both decoders, which must accept
// and reject alike and decode to equal values; and values built from s
// are encoded by both encoders, which must produce identical bytes. The
// parsers write into dirty scratch, as a processor's do, so a stale
// capacity that leaks into a result fails here too. The checked-in corpus
// is testdata/fuzz/FuzzEvidenceCodec.
func FuzzEvidenceCodec(f *testing.F) {
	f.Add("1,0,2", 3)
	f.Add("1;3;4", 0)
	f.Fuzz(func(t *testing.T, s string, n int) {
		dirtyInts := []int{7, 7, 7, 7, 7, 7, 7, 7}

		// Decoders.
		wantP, wantErr := DecodeProfile(s, n)
		gotP, gotErr := ParseProfile(slices.Clone(dirtyInts), []byte(s), n)
		if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && !slices.Equal(gotP, wantP)) {
			t.Fatalf("profile %q n=%d: reference %v %v, scratch %v %v", s, n, wantP, wantErr, gotP, gotErr)
		}
		wantD, wantErr := DecodeDigest(s)
		gotD, gotErr := ParseDigest([]byte(s))
		if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && gotD != wantD) {
			t.Fatalf("digest %q: reference %v, scratch %v", s, wantErr, gotErr)
		}
		wantO, wantErr := DecodeOpening(s)
		gotO := commit.Opening{Value: []byte("stale opening value"), Nonce: [commit.NonceSize]byte{1}}
		gotErr = ParseOpening(&gotO, []byte(s))
		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr == nil && (!bytes.Equal(gotO.Value, wantO.Value) || gotO.Nonce != wantO.Nonce)) {
			t.Fatalf("opening %q: reference %x %v, scratch %x %v", s, wantO.Value, wantErr, gotO.Value, gotErr)
		}
		wantF, wantErr := DecodeFoulSet(s)
		gotF, gotErr := ParseFoulSet(slices.Clone(dirtyInts), []byte(s))
		if (wantErr == nil) != (gotErr == nil) || (wantErr == nil && !slices.Equal(gotF, wantF)) {
			t.Fatalf("foul set %q: reference %v %v, scratch %v %v", s, wantF, wantErr, gotF, gotErr)
		}

		// Encoders, appending after a prefix the result must keep.
		const prefix = "prefix:"
		ints := make([]int, len(s))
		for i := range s {
			ints[i] = int(int8(s[i])) * (n%1000 + 1)
		}
		op := commit.Opening{Value: []byte(s), Nonce: sha256.Sum256([]byte(s))}
		for _, c := range []struct{ kind, want, got string }{
			{"profile", EncodeProfile(ints), string(AppendProfile([]byte(prefix), ints))},
			{"decoded profile", EncodeProfile(wantP), string(AppendProfile([]byte(prefix), wantP))},
			{"digest", EncodeDigest(op.Nonce), string(AppendDigest([]byte(prefix), op.Nonce))},
			{"opening", EncodeOpening(op), string(AppendOpening([]byte(prefix), op))},
			{"foul set", EncodeFoulSet(ints), string(AppendFoulSet([]byte(prefix), ints))},
			{"decoded foul set", EncodeFoulSet(wantF), string(AppendFoulSet([]byte(prefix), wantF))},
		} {
			if c.got != prefix+c.want {
				t.Fatalf("%s from %q: reference %q, scratch %q", c.kind, s, c.want, c.got)
			}
		}
	})
}
