package core

import (
	"errors"
	"testing"
	"testing/quick"

	"gameauthority/internal/commit"
	"gameauthority/internal/game"
	"gameauthority/internal/prng"
)

func TestEncodeDecodeProfile(t *testing.T) {
	cases := []game.Profile{{0}, {1, 0, 2}, {-1, 3}}
	var scratch game.Profile
	for _, p := range cases {
		got, err := ParseProfile(scratch, AppendProfile(nil, p), len(p))
		if err != nil {
			t.Fatalf("decode(%v): %v", p, err)
		}
		if !got.Equal(p) {
			t.Fatalf("round trip %v → %v", p, got)
		}
		scratch = got
	}
	for _, bad := range []struct {
		s string
		n int
	}{{"", 1}, {"1,2", 3}, {"1,2,3", 2}, {"1,x", 2}, {"1", 0}} {
		if _, err := ParseProfile(scratch, []byte(bad.s), bad.n); !errors.Is(err, ErrConfig) {
			t.Fatalf("%q (n=%d): %v", bad.s, bad.n, err)
		}
	}
}

func TestEncodeDecodeDigest(t *testing.T) {
	src := prng.New(1)
	d, _ := commit.Commit(src, []byte("v"))
	enc := AppendDigest(nil, d)
	got, err := ParseDigest(enc)
	if err != nil || got != d {
		t.Fatalf("digest round trip failed: %v", err)
	}
	if _, err := ParseDigest([]byte("zz")); !errors.Is(err, ErrConfig) {
		t.Fatalf("short digest: %v", err)
	}
	if _, err := ParseDigest(append([]byte("g"), enc[1:]...)); !errors.Is(err, ErrConfig) {
		t.Fatalf("bad hex: %v", err)
	}
}

func TestEncodeDecodeOpening(t *testing.T) {
	src := prng.New(2)
	_, op := commit.Commit(src, []byte("payload"))
	got := commit.Opening{Value: make([]byte, 0, 64)}
	if err := ParseOpening(&got, AppendOpening(nil, op)); err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != "payload" || got.Nonce != op.Nonce {
		t.Fatal("opening round trip mismatch")
	}
	for _, bad := range []string{"", "a|b|c", "xx|yy", "ab|"} {
		if err := ParseOpening(&got, []byte(bad)); err == nil {
			t.Fatalf("malformed opening %q accepted", bad)
		}
		if len(got.Value) != 0 || got.Nonce != ([commit.NonceSize]byte{}) {
			t.Fatalf("malformed opening %q left %x|%x behind", bad, got.Value, got.Nonce)
		}
	}
}

func TestEncodeDecodeFoulSet(t *testing.T) {
	var scratch []int
	for _, ids := range [][]int{nil, {1}, {0, 2, 5}} {
		got, err := ParseFoulSet(scratch, AppendFoulSet(nil, ids))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("round trip %v → %v", ids, got)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("round trip %v → %v", ids, got)
			}
		}
		scratch = got
	}
	if _, err := ParseFoulSet(scratch, []byte("1;x")); !errors.Is(err, ErrConfig) {
		t.Fatalf("garbage: %v", err)
	}
}

// TestEvidenceCodecZeroAlloc pins the scratch discipline: once its
// buffers are warm, a processor encodes and parses every kind of phase
// evidence without allocating.
func TestEvidenceCodecZeroAlloc(t *testing.T) {
	p := game.Profile{1, 0, 2, -1}
	d, op := commit.Commit(prng.New(3), []byte("1"))
	profile := AppendProfile(nil, p)
	digest := AppendDigest(nil, d)
	opening := AppendOpening(nil, op)
	fouls := AppendFoulSet(nil, []int{0, 3})
	enc := make([]byte, 0, 256)
	prof := make(game.Profile, 0, len(p))
	ids := make([]int, 0, 4)
	parsed := commit.Opening{Value: make([]byte, 0, 8)}
	allocs := testing.AllocsPerRun(100, func() {
		enc = AppendProfile(enc[:0], p)
		enc = AppendDigest(enc[:0], d)
		enc = AppendOpening(enc[:0], op)
		enc = AppendFoulSet(enc[:0], ids)
		prof, _ = ParseProfile(prof, profile, len(p))
		_, _ = ParseDigest(digest)
		_ = ParseOpening(&parsed, opening)
		ids, _ = ParseFoulSet(ids, fouls)
	})
	if allocs != 0 {
		t.Fatalf("evidence codec allocates %v times per round, want 0", allocs)
	}
}

func TestQuickProfileCodecTotal(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		p := make(game.Profile, len(raw))
		for i, r := range raw {
			p[i] = int(r)
		}
		got, err := ParseProfile(nil, AppendProfile(nil, p), len(p))
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAgentStreamStateMatchesDerive pins the allocation-free commitment
// stream derivation to the original deriveAgentSource stream, seed for
// seed — the property the seeded-equivalence guarantees rest on.
func TestAgentStreamStateMatchesDerive(t *testing.T) {
	for _, seed := range []uint64{0, 7, 1 << 40} {
		for agent := 0; agent < 3; agent++ {
			for round := 0; round < 5; round++ {
				var src prng.Source
				src.Seed(agentStreamState(seed, agent, round))
				want := deriveAgentSource(seed, agent, round)
				for k := 0; k < 4; k++ {
					if got, exp := src.Uint64(), want.Uint64(); got != exp {
						t.Fatalf("seed=%d agent=%d round=%d draw %d: %#x != %#x",
							seed, agent, round, k, got, exp)
					}
				}
			}
		}
	}
}
