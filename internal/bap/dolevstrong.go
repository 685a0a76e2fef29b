package bap

import (
	"fmt"
	"strconv"

	"gameauthority/internal/auth"
	"gameauthority/internal/sim"
)

// Dolev–Strong authenticated broadcast: with transferable authentication a
// designated sender broadcasts a value; after f+1 rounds every honest
// processor accepts the same value (or the default if the sender
// equivocated/failed). This is the paper's footnote-2 regime where
// "authentication utilizes a Byzantine agreement that needs only a
// majority" — resilience is bounded by the signature scheme, not n > 3f.

// dsChainLink is one signature in a relay chain.
type dsChainLink struct {
	Signer int
	Tags   auth.TagVector
}

// dsPayload carries a value plus its signature chain.
type dsPayload struct {
	Val   Value
	Chain []dsChainLink
}

// dsMessageBody returns the byte string every chain signature covers:
// the sender id and the value (chains bind to the broadcast instance).
// It appends into buf so steady-state verification reuses one buffer.
func dsMessageBody(buf []byte, sender int, v Value) []byte {
	buf = append(buf[:0], "ds|"...)
	buf = strconv.AppendInt(buf, int64(sender), 10)
	buf = append(buf, '|')
	return append(buf, v...)
}

// DSProc is one processor's state in a Dolev–Strong broadcast with a fixed
// designated sender.
type DSProc struct {
	id, n, f int
	sender   int
	authn    *auth.Authenticator
	initial  Value // only used when id == sender

	extracted map[Value][]dsChainLink // accepted values → best chain seen
	relayQ    []dsPayload             // values to relay next pulse
	pulseNo   int
	done      bool
	decision  Value

	// Reused verification scratch, pre-sized at construction: quiet pulses
	// (no newly extracted value) run allocation-free, and each inbound
	// chain is validated without a per-message signer map.
	seenBuf []bool
	bodyBuf []byte
	outBuf  []sim.Message
}

var _ sim.Process = (*DSProc)(nil)
var _ sim.Corruptible = (*DSProc)(nil)

// NewDSProc creates processor id's state for a broadcast from sender.
// f may be any value < n (authenticated protocols tolerate more faults);
// rounds used = f+1.
func NewDSProc(id, n, f, sender int, authn *auth.Authenticator, initial Value) (*DSProc, error) {
	if n < 2 || f < 0 || f >= n {
		return nil, fmt.Errorf("%w: n=%d f=%d", ErrConfig, n, f)
	}
	if id < 0 || id >= n || sender < 0 || sender >= n {
		return nil, fmt.Errorf("%w: id=%d sender=%d", ErrConfig, id, sender)
	}
	if authn == nil {
		return nil, fmt.Errorf("%w: nil authenticator", ErrConfig)
	}
	return &DSProc{
		id: id, n: n, f: f, sender: sender, authn: authn, initial: initial,
		extracted: make(map[Value][]dsChainLink),
		seenBuf:   make([]bool, n),
		bodyBuf:   make([]byte, 0, 64),
	}, nil
}

// ID implements sim.Process.
func (p *DSProc) ID() int { return p.id }

// DSTotalPulses returns the pulses a Dolev–Strong broadcast needs:
// rounds 1..f+1 plus the final decision pulse.
func DSTotalPulses(f int) int { return f + 2 }

// Step implements sim.Process.
func (p *DSProc) Step(pulse int, inbox []sim.Message) []sim.Message {
	defer func() { p.pulseNo++ }()

	// Absorb: validate chains of length == pulseNo (received in round
	// pulseNo, they must carry pulseNo signatures starting with sender).
	if p.pulseNo >= 1 {
		for _, m := range inbox {
			pl, ok := m.Payload.(dsPayload)
			if !ok {
				continue
			}
			p.absorb(pl, p.pulseNo)
		}
	}

	switch {
	case p.pulseNo == 0:
		if p.id != p.sender {
			return nil
		}
		// Round 1: sender signs and broadcasts.
		body := dsMessageBody(p.bodyBuf, p.sender, p.initial)
		p.bodyBuf = body
		chain := []dsChainLink{{Signer: p.sender, Tags: p.authn.Sign(body)}}
		p.extracted[p.initial] = chain
		return broadcastAll(p.id, p.n, dsPayload{Val: p.initial, Chain: chain})

	case p.pulseNo < p.f+1:
		// Relay newly extracted values with our signature appended.
		out := p.flushRelays()
		return out

	case p.pulseNo == p.f+1:
		// Final relay round then decide.
		out := p.flushRelays()
		p.decide()
		return out

	default:
		if !p.done {
			p.decide()
		}
		return nil
	}
}

// absorb validates an incoming payload at the given round: the chain must
// have exactly `round` distinct in-range signers beginning with the
// designated sender, all tags valid. Valid new values are queued for relay.
// The signer-dedup scratch is a reused []bool, cleared link by link on the
// way out, so rejecting Byzantine floods does not allocate.
func (p *DSProc) absorb(pl dsPayload, round int) {
	if len(pl.Chain) != round || round < 1 {
		return
	}
	if pl.Chain[0].Signer != p.sender {
		return
	}
	body := dsMessageBody(p.bodyBuf, p.sender, pl.Val)
	p.bodyBuf = body
	valid := 0
	selfSigned := false
	for _, link := range pl.Chain {
		if link.Signer < 0 || link.Signer >= p.n || p.seenBuf[link.Signer] {
			break // out-of-range or duplicate signer
		}
		if err := p.authn.Verify(link.Signer, body, link.Tags); err != nil {
			break
		}
		p.seenBuf[link.Signer] = true
		if link.Signer == p.id {
			selfSigned = true
		}
		valid++
	}
	for _, link := range pl.Chain[:valid] {
		p.seenBuf[link.Signer] = false
	}
	if valid != len(pl.Chain) {
		return
	}
	if _, known := p.extracted[pl.Val]; known {
		return
	}
	p.extracted[pl.Val] = pl.Chain
	if !selfSigned {
		// Queue for relay with our signature.
		chain := append(append([]dsChainLink(nil), pl.Chain...),
			dsChainLink{Signer: p.id, Tags: p.authn.Sign(body)})
		p.relayQ = append(p.relayQ, dsPayload{Val: pl.Val, Chain: chain})
	}
}

// flushRelays emits queued relays to everyone, reusing the outbox buffer
// (the network copies messages out before the next pulse's flush).
func (p *DSProc) flushRelays() []sim.Message {
	if len(p.relayQ) == 0 {
		return nil
	}
	out := p.outBuf[:0]
	for _, pl := range p.relayQ {
		for to := 0; to < p.n; to++ {
			out = append(out, sim.Message{From: p.id, To: to, Payload: pl})
		}
	}
	p.relayQ = p.relayQ[:0]
	p.outBuf = out
	return out
}

// decide applies the Dolev–Strong rule: exactly one extracted value →
// accept it; zero or several (sender equivocated) → default.
func (p *DSProc) decide() {
	p.done = true
	if len(p.extracted) == 1 {
		for v := range p.extracted {
			p.decision = v
		}
		return
	}
	p.decision = DefaultValue
}

// Done and Decision expose the outcome.
func (p *DSProc) Done() bool { return p.done }

// Decision returns the accepted value or ErrNotDecided.
func (p *DSProc) Decision() (Value, error) {
	if !p.done {
		return DefaultValue, ErrNotDecided
	}
	return p.decision, nil
}

// Corrupt implements sim.Corruptible.
func (p *DSProc) Corrupt(entropy func() uint64) {
	p.pulseNo = int(entropy() % uint64(p.f+3))
	p.done = false
	p.decision = DefaultValue
	p.extracted = make(map[Value][]dsChainLink)
	p.relayQ = nil
}

// broadcastAll fabricates one message per destination (including self,
// which simplifies quorum counting); the network enforces topology and
// stamps From.
func broadcastAll(from, n int, payload any) []sim.Message {
	out := make([]sim.Message, 0, n)
	for to := 0; to < n; to++ {
		out = append(out, sim.Message{From: from, To: to, Payload: payload})
	}
	return out
}
