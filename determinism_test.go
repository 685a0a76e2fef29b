package gameauthority_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	ga "gameauthority"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/determinism_golden.json from the current engine")

const goldenPath = "testdata/determinism_golden.json"

// determinismScenarios is the cross-driver determinism fixture: one
// representative configuration per driver (plus a deviant variant, so the
// deviation layer is pinned too). Transcripts must be byte-identical
// run-to-run and match the checked-in golden hashes — an engine refactor
// that silently changes play semantics fails here before it ships.
func determinismScenarios(t *testing.T) map[string]func() (ga.Session, int) {
	t.Helper()
	mustNew := func(g ga.Game, opts ...ga.Option) ga.Session {
		s, err := ga.New(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	uniform := func(g ga.Game) func(int, ga.Profile) ga.MixedProfile {
		mp := make(ga.MixedProfile, g.NumPlayers())
		for i := range mp {
			mp[i] = ga.Uniform(g.NumActions(i))
		}
		return func(int, ga.Profile) ga.MixedProfile { return mp }
	}
	braess, err := ga.BraessRouting(4)
	if err != nil {
		t.Fatal(err)
	}
	pennies := ga.MatchingPennies()
	pg, err := ga.PublicGoods(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func() (ga.Session, int){
		"pure-braess": func() (ga.Session, int) {
			return mustNew(braess, ga.WithSeed(42),
				ga.WithPunishment(ga.NewDisconnectScheme(4, 0))), 16
		},
		"pure-braess-deviant": func() (ga.Session, int) {
			return mustNew(braess, ga.WithSeed(42),
				ga.WithPunishment(ga.NewDisconnectScheme(4, 0)),
				ga.WithDeviant(1, ga.Freerider())), 16
		},
		"mixed-pennies": func() (ga.Session, int) {
			return mustNew(pennies, ga.WithSeed(42),
				ga.WithStrategies(uniform(pennies)),
				ga.WithAudit(ga.AuditPerRound),
				ga.WithPunishment(ga.NewDisconnectScheme(2, 0))), 16
		},
		"rra-8x4": func() (ga.Session, int) {
			return mustNew(nil, ga.WithSeed(42), ga.WithRRA(8, 4),
				ga.WithPunishment(ga.NewDisconnectScheme(8, 0))), 16
		},
		"dist-publicgoods": func() (ga.Session, int) {
			// n = 4 steps on the lockstep engine; the worker pool is
			// proven execution-identical by core's equivalence property
			// tests, so this transcript covers both.
			return mustNew(pg, ga.WithSeed(42),
				ga.WithDistributed(4, 1, nil)), 6
		},
	}
}

// transcript renders a session's full history canonically: every field of
// every play, floats in shortest round-trip form, so any semantic drift
// changes the bytes.
func transcript(t *testing.T, s ga.Session, rounds int) string {
	t.Helper()
	if _, err := s.Run(context.Background(), rounds); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, res := range s.Results() {
		fmt.Fprintf(&b, "round=%d outcome=%v convicted=%v excluded=%v pulse=%d", res.Round, res.Outcome, res.Convicted, res.Excluded, res.Pulse)
		b.WriteString(" costs=[")
		for i, c := range res.Costs {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(c, 'g', -1, 64))
		}
		b.WriteString("] fouls=[")
		for i, f := range res.Verdict.Fouls {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d:%s", f.Agent, f.Reason)
		}
		b.WriteString("]\n")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCrossDriverDeterminism replays every fixture twice and against the
// checked-in golden hash. Regenerate with:
//
//	go test -run TestCrossDriverDeterminism -update .
func TestCrossDriverDeterminism(t *testing.T) {
	scenarios := determinismScenarios(t)

	golden := map[string]string{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatalf("parse %s: %v", goldenPath, err)
		}
	} else if !*updateGolden {
		t.Fatalf("read %s: %v (run with -update to create it)", goldenPath, err)
	}

	got := map[string]string{}
	for name, build := range scenarios {
		t.Run(name, func(t *testing.T) {
			s1, rounds := build()
			first := transcript(t, s1, rounds)
			s2, _ := build()
			second := transcript(t, s2, rounds)
			if first != second {
				t.Fatalf("run-to-run divergence:\n--- first ---\n%s--- second ---\n%s", first, second)
			}
			if first == "" {
				t.Fatalf("empty transcript")
			}
			sum := sha256.Sum256([]byte(first))
			hash := hex.EncodeToString(sum[:])
			got[name] = hash
			if *updateGolden {
				return
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden hash for %q (run with -update)", name)
			}
			if hash != want {
				t.Errorf("transcript hash %s, golden %s — engine semantics changed; if intentional, re-run with -update and review the diff", hash, want)
			}
		})
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		ordered := make(map[string]string, len(got))
		for _, name := range names {
			ordered[name] = got[name]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}

	// Stale golden entries indicate a renamed fixture — fail loudly so
	// the golden file cannot rot.
	if !*updateGolden {
		for name := range golden {
			if _, ok := scenarios[name]; !ok {
				t.Errorf("golden entry %q has no fixture (re-run with -update)", name)
			}
		}
	}
}
