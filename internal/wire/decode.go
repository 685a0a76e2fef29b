package wire

// Results is the fully decoded form of a MsgResults reply, produced by
// DecodeAny (hot paths stream DecodeResultItem instead and reuse one
// scratch Result).
type Results struct {
	ReqID, Ref uint64
	Results    []Result
	Code       uint64
	Detail     string
	Deduped    uint64
}

// EventFrame pairs a pushed event with its subscription ref.
type EventFrame struct {
	Ref   uint64
	Event Event
}

func cloneResult(r *Result) Result {
	c := *r
	c.Outcome = append([]int(nil), r.Outcome...)
	c.Costs = append([]float64(nil), r.Costs...)
	c.Fouls = append([]Foul(nil), r.Fouls...)
	c.Convicted = append([]int(nil), r.Convicted...)
	c.Excluded = append([]int(nil), r.Excluded...)
	return c
}

// DecodeAny decodes the next message in the frame, including its type
// byte, and returns the decoded struct. MsgEvent frames are expanded
// through evDec (one per ref on real connections; the fuzz target shares
// one). It never panics on malformed input: any structural problem
// surfaces as ErrMalformed.
func DecodeAny(d *Decoder, evDec *EventDecoder) (any, error) {
	typ := d.Byte()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch typ {
	case MsgHello:
		return DecodeHello(d)
	case MsgWelcome:
		return DecodeWelcome(d)
	case MsgCreate:
		return DecodeCreate(d)
	case MsgAttach:
		return DecodeAttach(d)
	case MsgPlay:
		return DecodePlay(d)
	case MsgSubscribe:
		return DecodeSubscribe(d)
	case MsgUnsubscribe, MsgCloseSession, MsgStats, MsgSnapshot:
		r, err := DecodeRefReq(d)
		if err != nil {
			return nil, err
		}
		return struct {
			Type byte
			RefReq
		}{typ, r}, nil
	case MsgCreated:
		return DecodeCreated(d)
	case MsgResults:
		h, err := DecodeResultsHeader(d)
		if err != nil {
			return nil, err
		}
		out := Results{ReqID: h.ReqID, Ref: h.Ref}
		var scratch Result
		for {
			more, err := DecodeResultItem(d, &scratch)
			if err != nil {
				return nil, err
			}
			if !more {
				break
			}
			out.Results = append(out.Results, cloneResult(&scratch))
		}
		t, err := DecodeResultsTrailer(d)
		if err != nil {
			return nil, err
		}
		out.Code, out.Detail, out.Deduped = t.Code, t.Detail, t.Deduped
		return out, nil
	case MsgError:
		return DecodeError(d)
	case MsgOK:
		return DecodeOK(d)
	case MsgStatsReply:
		reqID, st, err := DecodeStatsReply(d)
		if err != nil {
			return nil, err
		}
		return struct {
			ReqID uint64
			Stats Stats
		}{reqID, st}, nil
	case MsgSnapshotReply:
		return DecodeSnapshotReply(d)
	case MsgEvent:
		ref := d.Uvarint()
		ev, err := evDec.Decode(d)
		if err != nil {
			return EventFrame{}, err
		}
		return EventFrame{Ref: ref, Event: ev}, nil
	case MsgLag:
		return DecodeLag(d)
	default:
		d.fail()
		return nil, d.Err()
	}
}
