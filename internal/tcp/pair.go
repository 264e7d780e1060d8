package tcp

import (
	"clove/internal/packet"
	"clove/internal/sim"
)

// Pair is one TCP connection's transport in a single record: the sender of
// its data stream and the receiver that acknowledges it, held by value.
// The two usually schedule on different simulators (the client's and the
// server's event domains); sharing a record only saves allocations.
type Pair struct {
	Snd Sender
	Rcv Receiver
}

// NewPair builds the transport of flow: a sender on cs transmitting via
// sndOut and a receiver on ss acknowledging via rcvOut.
func NewPair(cs, ss *sim.Simulator, cfg Config, flow packet.FiveTuple, sndOut, rcvOut func(*packet.Packet)) *Pair {
	return &Pair{
		Snd: makeSender(cs, cfg, flow, sndOut),
		Rcv: makeReceiver(ss, cfg, flow, rcvOut),
	}
}
