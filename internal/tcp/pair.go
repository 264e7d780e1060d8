package tcp

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// Pair is one TCP connection's transport in a single record: the sender of
// its data stream and the receiver that acknowledges it, held by value, so
// a connection costs one allocation instead of two. Both endpoints read the
// caller's Config in place; TestPairSize pins the record.
type Pair struct {
	Snd Sender
	Rcv Receiver
}

// NewPair builds the transport of flow on s: a sender transmitting via
// sndOut and a receiver acknowledging via rcvOut. Like NewSharedReceiver it
// reads cfg in place, so cfg must have every default filled and must not
// change while the pair lives.
func NewPair(s *sim.Simulator, cfg *Config, flow packet.FiveTuple, sndOut, rcvOut func(*packet.Packet)) *Pair {
	return &Pair{
		Snd: makeSender(s, cfg, flow, sndOut),
		Rcv: Receiver{sim: s, cfg: cfg, flow: flow, Output: rcvOut},
	}
}
