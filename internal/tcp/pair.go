package tcp

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// Pair is one TCP connection's transport in a single record: the sender of
// its data stream and the receiver that acknowledges it, held by value, so
// a connection costs one allocation instead of two.
type Pair struct {
	Snd Sender
	Rcv Receiver
}

// NewPair builds the transport of flow on s: a sender transmitting via
// sndOut and a receiver acknowledging via rcvOut.
func NewPair(s *sim.Simulator, cfg Config, flow packet.FiveTuple, sndOut, rcvOut func(*packet.Packet)) *Pair {
	return &Pair{
		Snd: makeSender(s, cfg, flow, sndOut),
		Rcv: makeReceiver(s, cfg, flow, rcvOut),
	}
}
