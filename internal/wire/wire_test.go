package wire

import (
	"bytes"
	"math"
	"testing"

	"gameauthority/internal/audit"
	"gameauthority/internal/core"
	"gameauthority/internal/game"
)

func TestCommandRoundTrips(t *testing.T) {
	var buf []byte
	buf = AppendHello(buf, Version, FlagReconnect)
	buf = AppendCreate(buf, 1, []byte(`{"id":"s1","game":"pd"}`))
	buf = AppendAttach(buf, 2, "s1")
	buf = AppendPlay(buf, 3, 7, 25, 10)
	buf = AppendSubscribe(buf, 4, 7, 42)
	buf = AppendRefReq(buf, MsgStats, 5, 7)
	buf = AppendWelcome(buf, Version, 8)
	buf = AppendCreated(buf, 1, 7, "s1", 9)
	buf = AppendError(buf, 9, CodeNotFound, "unknown ref")
	buf = AppendOK(buf, 4)
	buf = AppendSnapshotReply(buf, 6, 42, "deadbeef", true)
	buf = AppendLag(buf, 7, 3)

	d := NewDecoder(buf)
	var evDec EventDecoder
	var got []any
	for d.Len() > 0 {
		msg, err := DecodeAny(&d, &evDec)
		if err != nil {
			t.Fatalf("DecodeAny: %v (after %d messages)", err, len(got))
		}
		got = append(got, msg)
	}
	if len(got) != 12 {
		t.Fatalf("decoded %d messages, want 12", len(got))
	}
	if h := got[0].(Hello); h.Version != Version || h.Flags != FlagReconnect {
		t.Errorf("hello = %+v", h)
	}
	if c := got[1].(Create); c.ReqID != 1 || string(c.Spec) != `{"id":"s1","game":"pd"}` {
		t.Errorf("create = %+v", c)
	}
	if a := got[2].(Attach); a.ReqID != 2 || a.ID != "s1" {
		t.Errorf("attach = %+v", a)
	}
	if p := got[3].(Play); p.ReqID != 3 || p.Ref != 7 || p.Rounds != 25 || p.Expect != 10 {
		t.Errorf("play = %+v", p)
	}
	if s := got[4].(Subscribe); s.ReqID != 4 || s.Ref != 7 || s.Since != 42 {
		t.Errorf("subscribe = %+v", s)
	}
	if w := got[6].(Welcome); w.Shards != 8 {
		t.Errorf("welcome = %+v", w)
	}
	if c := got[7].(Created); c.Ref != 7 || c.ID != "s1" || c.Rounds != 9 {
		t.Errorf("created = %+v", c)
	}
	if e := got[8].(ErrorMsg); e.Code != CodeNotFound || e.Detail != "unknown ref" {
		t.Errorf("error = %+v", e)
	}
	if s := got[10].(SnapshotReply); s.Rounds != 42 || s.Digest != "deadbeef" || !s.Persisted {
		t.Errorf("snapshot reply = %+v", s)
	}
	if l := got[11].(Lag); l.Ref != 7 || l.Dropped != 3 {
		t.Errorf("lag = %+v", l)
	}
}

func TestResultsRoundTrip(t *testing.T) {
	r1 := core.RoundResult{
		Round:   0,
		Outcome: game.Profile{1, 0},
		Costs:   []float64{-1, 2.5},
	}
	r2 := core.RoundResult{
		Round:   1,
		Outcome: game.Profile{0, 3},
		Verdict: audit.Verdict{Fouls: []audit.Foul{
			{Agent: 1, Reason: audit.ReasonIllegitimateAction, Detail: "action 3 outside Π"},
		}},
		Convicted: []int{1},
		Excluded:  []int{1},
		Costs:     []float64{0, math.Inf(1)},
		Pulse:     17,
	}
	buf := AppendResultsHeader(nil, 11, 7)
	buf = AppendResult(buf, &r1)
	buf = AppendResult(buf, &r2)
	buf = FinishResults(buf, CodeUnavailable, "pulse budget exhausted", 1)

	d := NewDecoder(buf)
	if typ := d.Byte(); typ != MsgResults {
		t.Fatalf("type = %#x", typ)
	}
	h, err := DecodeResultsHeader(&d)
	if err != nil || h.ReqID != 11 || h.Ref != 7 {
		t.Fatalf("header = %+v, err %v", h, err)
	}
	var out Result
	more, err := DecodeResultItem(&d, &out)
	if err != nil || !more {
		t.Fatalf("item 1: more=%v err=%v", more, err)
	}
	if out.Round != 0 || len(out.Outcome) != 2 || out.Outcome[1] != 0 ||
		len(out.Fouls) != 0 || out.Costs[1] != 2.5 {
		t.Errorf("result 1 = %+v", out)
	}
	more, err = DecodeResultItem(&d, &out)
	if err != nil || !more {
		t.Fatalf("item 2: more=%v err=%v", more, err)
	}
	if out.Round != 1 || out.Outcome[1] != 3 || len(out.Fouls) != 1 ||
		out.Fouls[0].Agent != 1 || audit.Reason(out.Fouls[0].Reason) != audit.ReasonIllegitimateAction ||
		out.Fouls[0].Detail != "action 3 outside Π" ||
		len(out.Convicted) != 1 || len(out.Excluded) != 1 ||
		!math.IsInf(out.Costs[1], 1) || out.Pulse != 17 {
		t.Errorf("result 2 = %+v", out)
	}
	more, err = DecodeResultItem(&d, &out)
	if err != nil || more {
		t.Fatalf("terminator: more=%v err=%v", more, err)
	}
	tr, err := DecodeResultsTrailer(&d)
	if err != nil || tr.Code != CodeUnavailable || tr.Detail != "pulse budget exhausted" || tr.Deduped != 1 {
		t.Fatalf("trailer = %+v, err %v", tr, err)
	}
	if d.Len() != 0 {
		t.Errorf("%d trailing bytes", d.Len())
	}
}

func TestStatsRoundTrip(t *testing.T) {
	st := core.SessionStats{
		Kind:           core.KindDistributed,
		Players:        4,
		Rounds:         100,
		Fouls:          3,
		Convictions:    1,
		CumulativeCost: []float64{1, 2, 3, 4.5},
		Excluded:       []bool{false, true, false, true},
		MaxLoad:        9,
		Pulses:         1234,
		Messages:       99999,
	}
	st.Protocol.Commitments = 7
	st.Protocol.Reveals = 6
	st.Protocol.Agreements = 5

	buf := AppendStatsReply(nil, 21, &st)
	d := NewDecoder(buf)
	if typ := d.Byte(); typ != MsgStatsReply {
		t.Fatalf("type = %#x", typ)
	}
	reqID, got, err := DecodeStatsReply(&d)
	if err != nil || reqID != 21 {
		t.Fatalf("reqID=%d err=%v", reqID, err)
	}
	if got.Players != 4 || got.Rounds != 100 || got.Fouls != 3 || got.Convictions != 1 {
		t.Errorf("counters = %+v", got)
	}
	if len(got.CumulativeCost) != 4 || got.CumulativeCost[3] != 4.5 {
		t.Errorf("costs = %v", got.CumulativeCost)
	}
	if len(got.Excluded) != 2 || got.Excluded[0] != 1 || got.Excluded[1] != 3 {
		t.Errorf("excluded = %v", got.Excluded)
	}
	if got.MaxLoad != 9 || got.Pulses != 1234 || got.Messages != 99999 ||
		got.Commitments != 7 || got.Reveals != 6 || got.Agreements != 5 {
		t.Errorf("stats = %+v", got)
	}
}

// TestEventDelta pins the delta encoding: repeated play outcomes/costs
// are suppressed, a changed value reappears, and a Reset (dropped event)
// forces the next event to be self-contained.
func TestEventDelta(t *testing.T) {
	var enc EventEncoder
	var dec EventDecoder

	ev := func(round int, outcome []int, costs []float64) core.Event {
		return core.Event{Kind: core.EventPlay, Round: round, Outcome: outcome, Costs: costs}
	}
	decode := func(frame []byte) Event {
		t.Helper()
		d := NewDecoder(frame)
		if typ := d.Byte(); typ != MsgEvent {
			t.Fatalf("type = %#x", typ)
		}
		if ref := d.Uvarint(); ref != 7 {
			t.Fatalf("ref = %d", ref)
		}
		out, err := dec.Decode(&d)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if d.Len() != 0 {
			t.Fatalf("%d trailing bytes", d.Len())
		}
		return out
	}

	e1 := ev(0, []int{1, 1}, []float64{2, 2})
	full := enc.Append(nil, 7, &e1)
	got := decode(full)
	if got.Round != 0 || len(got.Outcome) != 2 || got.Outcome[0] != 1 || got.Costs[1] != 2 {
		t.Fatalf("event 1 = %+v", got)
	}

	// Identical outcome/costs: the frame must shrink and still decode to
	// the same values.
	e2 := ev(1, []int{1, 1}, []float64{2, 2})
	delta := enc.Append(nil, 7, &e2)
	if len(delta) >= len(full) {
		t.Fatalf("delta frame (%d bytes) not smaller than full frame (%d bytes)", len(delta), len(full))
	}
	got = decode(delta)
	if got.Round != 1 || len(got.Outcome) != 2 || got.Outcome[1] != 1 || got.Costs[0] != 2 {
		t.Fatalf("event 2 = %+v", got)
	}

	// Changed outcome reappears on the wire.
	e3 := ev(2, []int{0, 1}, []float64{2, 2})
	frame := enc.Append(nil, 7, &e3)
	got = decode(frame)
	if got.Outcome[0] != 0 || got.Costs[1] != 2 {
		t.Fatalf("event 3 = %+v", got)
	}

	// After a drop (Reset), the next event must be full even if equal.
	enc.Reset()
	e4 := ev(3, []int{0, 1}, []float64{2, 2})
	frame = enc.Append(nil, 7, &e4)
	if len(frame) <= len(delta) {
		t.Fatalf("post-reset frame (%d bytes) should carry full outcome/costs", len(frame))
	}
	got = decode(frame)
	if got.Round != 3 || got.Outcome[1] != 1 {
		t.Fatalf("event 4 = %+v", got)
	}

	// Non-play events carry their own fields and leave delta state alone.
	conv := core.Event{Kind: core.EventConviction, Round: 4, Agent: 1, Detail: "excluded"}
	frame = enc.Append(nil, 7, &conv)
	got = decode(frame)
	if got.Kind != uint8(core.EventConviction) || got.Agent != 1 || got.Detail != "excluded" {
		t.Fatalf("conviction = %+v", got)
	}
	e5 := ev(5, []int{0, 1}, []float64{2, 2})
	frame = enc.Append(nil, 7, &e5)
	got = decode(frame)
	if len(got.Outcome) != 2 || got.Outcome[1] != 1 {
		t.Fatalf("event 5 (post-conviction delta) = %+v", got)
	}
}

func TestMalformedInputsError(t *testing.T) {
	cases := map[string][]byte{
		"empty type only":     {},
		"unknown type":        {0xFF, 0x01},
		"truncated varint":    {MsgPlay, 0x80},
		"string over length":  append([]byte{MsgAttach, 0x01}, 0x20, 'a', 'b'),
		"huge count":          {MsgStatsReply, 0x01, 0x00, 0x01, 0x01, 0x01, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F},
		"bad results marker":  append(AppendResultsHeader(nil, 1, 1), 0x02),
		"float short":         {MsgEvent, 0x01, 0x05, 0x01, 0x02, 0x00, 0x01, 0x11, 0x22},
		"oversized payload":   append([]byte{MsgCreate, 0x01}, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"negative-ish varint": {MsgPlay, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for name, frame := range cases {
		d := NewDecoder(frame)
		var evDec EventDecoder
		if _, err := DecodeAny(&d, &evDec); err == nil && name != "negative-ish varint" {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDecoderBoundsNoAlloc(t *testing.T) {
	// A claimed element count far beyond the actual bytes must fail
	// before allocating: build a frame claiming 2^30 ints with 3 bytes of
	// body.
	frame := []byte{MsgStatsReply, 0x01, 0x00, 0x01, 0x01, 0x01, 0x01}
	frame = AppendUvarint(frame, 1<<30)
	frame = append(frame, 1, 2, 3)
	d := NewDecoder(frame)
	var evDec EventDecoder
	if _, err := DecodeAny(&d, &evDec); err == nil {
		t.Fatal("oversized count decoded without error")
	}
}

func TestAppendUvarintMatchesStdlib(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		got := AppendUvarint(nil, v)
		d := NewDecoder(got)
		if back := d.Uvarint(); back != v || d.Err() != nil {
			t.Errorf("uvarint %d round-tripped to %d (err %v)", v, back, d.Err())
		}
		if !bytes.Equal(got, AppendUvarint([]byte{}, v)) {
			t.Errorf("append not deterministic for %d", v)
		}
	}
}
