package wire

import (
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/core"
	"gameauthority/internal/game"
)

// FuzzWireDecode feeds arbitrary bytes through the full decode surface.
// Malformed frames must return an error — never panic, never allocate
// unboundedly (the decoder bounds every count by the remaining bytes).
// The checked-in corpus under testdata/fuzz/FuzzWireDecode seeds the
// fuzzer with one valid encoding of every message type plus truncations.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > MaxPayload {
			return
		}
		d := NewDecoder(data)
		var evDec EventDecoder
		for d.Len() > 0 {
			if _, err := DecodeAny(&d, &evDec); err != nil {
				if d.Err() == nil && err != ErrMalformed {
					// Decode errors must come from the bounds-checked
					// decoder or the malformed sentinel, not ad-hoc paths
					// that might leave the decoder mid-message.
					t.Fatalf("error %v with clean decoder state", err)
				}
				return
			}
		}
	})
}

// fuzzSeeds builds one valid frame per message type (concatenations
// included) so the fuzzer starts from the interesting part of the input
// space instead of rediscovering the format.
func fuzzSeeds() [][]byte {
	res := core.RoundResult{
		Round:     3,
		Outcome:   game.Profile{1, 0, 2},
		Costs:     []float64{0.5, -1, 2},
		Verdict:   audit.Verdict{Fouls: []audit.Foul{{Agent: 2, Reason: audit.ReasonIllegitimateAction, Detail: "off-menu"}}},
		Convicted: []int{2},
		Excluded:  []int{2},
		Pulse:     9,
	}
	results := AppendResultsHeader(nil, 5, 1)
	results = AppendResult(results, &res)
	results = FinishResults(results, CodeOK, "", 0)

	st := core.SessionStats{
		Kind: core.KindRRA, Players: 3, Rounds: 10, Fouls: 1, Convictions: 1,
		CumulativeCost: []float64{1, 2, 3}, Excluded: []bool{false, false, true},
		MaxLoad: 4, Pulses: 7, Messages: 21,
	}

	var enc EventEncoder
	ev1 := core.Event{Kind: core.EventPlay, Round: 0, Outcome: game.Profile{1, 1}, Costs: []float64{2, 2}}
	ev2 := core.Event{Kind: core.EventPlay, Round: 1, Outcome: game.Profile{1, 1}, Costs: []float64{2, 2}}
	events := enc.Append(nil, 4, &ev1)
	events = enc.Append(events, 4, &ev2)

	seeds := [][]byte{
		AppendHello(nil, Version, FlagReconnect),
		AppendWelcome(nil, Version, 4),
		AppendCreate(nil, 1, []byte(`{"id":"s","game":"pd"}`)),
		AppendAttach(nil, 2, "session-1"),
		AppendPlay(nil, 3, 1, 100, 7),
		AppendPlay(nil, 9, 1, 1, 0), // the common request: one round, no watermark
		AppendSubscribe(nil, 4, 1, 11),
		AppendRefReq(nil, MsgUnsubscribe, 5, 1),
		AppendRefReq(nil, MsgCloseSession, 6, 1),
		AppendRefReq(nil, MsgStats, 7, 1),
		AppendRefReq(nil, MsgSnapshot, 8, 1),
		AppendCreated(nil, 1, 1, "session-1", 3),
		AppendError(nil, 2, CodeNotFound, "no such session"),
		AppendOK(nil, 4),
		AppendSnapshotReply(nil, 8, 42, "0123abcd", true),
		AppendLag(nil, 1, 12),
		AppendStatsReply(nil, 7, &st),
		results,
		events,
	}
	// One frame with every message back to back: exercises the
	// self-delimiting property.
	var all []byte
	for _, s := range seeds {
		all = append(all, s...)
	}
	seeds = append(seeds, all)
	// Truncations of the composite frame probe every boundary.
	for _, cut := range []int{1, len(all) / 3, len(all) / 2, len(all) - 1} {
		if cut > 0 && cut < len(all) {
			seeds = append(seeds, all[:cut])
		}
	}
	return seeds
}
