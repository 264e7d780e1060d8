// Realnet runs the deployable userspace datapath over real loopback UDP
// sockets: a sender tunnels traffic through an in-process multipath fabric
// emulator whose second path is slow and ECN-marking; the receiver reflects
// congestion feedback in the shim header of its keepalives, and the sender's
// path weights visibly shift away from the bad path — Clove's control loop
// on actual sockets rather than the simulator.
package main

import (
	"fmt"
	"time"

	"clove"
)

func main() {
	cfg := clove.DefaultEndpointConfig()
	cfg.Paths = 2
	cfg.FlowletGap = 200 * time.Microsecond
	cfg.RelayInterval = 100 * time.Microsecond

	recv, err := clove.NewEndpoint("127.0.0.1", cfg)
	check(err)
	defer recv.Close()

	// Path 0: clean. Path 1: 5 Mbps with aggressive ECN marking.
	emu, err := clove.NewPathEmulator("127.0.0.1",
		fmt.Sprintf("127.0.0.1:%d", recv.Ports()[0]),
		[]clove.PathProfile{
			{},
			{RateBps: 5_000_000, ECNDepth: 1},
		})
	check(err)
	defer emu.Close()

	snd, err := clove.NewEndpoint("127.0.0.1", cfg)
	check(err)
	defer snd.Close()

	check(snd.Start(emu.Addr()))
	check(recv.Start(fmt.Sprintf("127.0.0.1:%d", snd.Ports()[0])))
	recv.SetOnRecv(func([]byte) {})
	snd.SetOnRecv(func([]byte) {})

	fmt.Printf("sender paths (outer source ports): %v\n", snd.Ports())
	fmt.Printf("emulator ingress: %s  receiver: 127.0.0.1:%d\n\n", emu.Addr(), recv.Ports()[0])

	stop := make(chan struct{})
	go func() { // forward traffic
		payload := make([]byte, 1200)
		for {
			select {
			case <-stop:
				return
			default:
				snd.Send(payload)
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	go func() { // reverse keepalives carry feedback
		for {
			select {
			case <-stop:
				return
			default:
				recv.Keepalive()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	for i := 0; i < 10; i++ {
		time.Sleep(100 * time.Millisecond)
		sst, rst := snd.Stats(), recv.Stats()
		fmt.Printf("t=%3dms weights=%v  sent=%d delivered=%d ce=%d fb=%d\n",
			(i+1)*100, fmtWeights(snd), sst.Sent, rst.Received, rst.CEObserved, sst.FeedbackReceived)
	}
	close(stop)

	fmt.Println("\nthe marked path's weight should have collapsed toward the floor")
}

func fmtWeights(e *clove.Endpoint) string {
	out := "{"
	for i, pw := range e.WeightsSorted() {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d:%.2f", pw.Port, pw.Weight)
	}
	return out + "}"
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
