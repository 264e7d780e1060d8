package datapath

import (
	"net"
	"testing"
	"time"
)

// TestEmulatorDelayIsLatencyNotServiceTime sends 50 datagrams back to back
// over one unpaced 20 ms path. The delay is a wire, not a server: they all
// arrive about 20 ms after they were sent, not 50 × 20 ms later.
func TestEmulatorDelayIsLatencyNotServiceTime(t *testing.T) {
	const n, delay = 50, 20 * time.Millisecond
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	emu, err := NewPathEmulator("127.0.0.1", sink.LocalAddr().String(), []PathProfile{{Delay: delay}})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	src, err := net.Dial("udp", emu.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := src.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	sink.SetReadDeadline(start.Add(2 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < n; i++ {
		if _, _, err := sink.ReadFromUDP(buf); err != nil {
			t.Fatalf("%d of %d datagrams after %v: %v", i, n, time.Since(start), err)
		}
		if i == 0 && time.Since(start) < delay {
			t.Errorf("first datagram arrived after %v, before the path's %v delay", time.Since(start), delay)
		}
	}
	if took := time.Since(start); took > 250*time.Millisecond {
		t.Errorf("%d datagrams over a %v path took %v, want under 250ms", n, delay, took)
	}
}

// TestEmulatorPacesAtConfiguredRate sends 200 × 1,400 B back to back over
// one 100 Mbps path with no delay: 22.4 ms of transmission. A pacer that
// sleeps each datagram's sub-millisecond transmission time runs at the
// timer's granularity instead, about ten times slower.
func TestEmulatorPacesAtConfiguredRate(t *testing.T) {
	const n, size, rate = 200, 1400, 100_000_000
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	// Room for the whole burst: a pacer that wakes late releases what is
	// overdue at once, and this test times the rate, not the reader.
	sink.SetReadBuffer(4 << 20)
	emu, err := NewPathEmulator("127.0.0.1", sink.LocalAddr().String(), []PathProfile{{RateBps: rate}})
	if err != nil {
		t.Fatal(err)
	}
	defer emu.Close()
	src, err := net.Dial("udp", emu.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := src.Write(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	sink.SetReadDeadline(start.Add(2 * time.Second))
	buf := make([]byte, 2048)
	for i := 0; i < n; i++ {
		if _, _, err := sink.ReadFromUDP(buf); err != nil {
			t.Fatalf("%d of %d datagrams after %v: %v", i, n, time.Since(start), err)
		}
	}
	took := time.Since(start)
	if ideal := time.Duration(n * size * 8 * int64(time.Second) / rate); took < ideal-time.Millisecond {
		t.Errorf("%d × %d B over a %d bps path took %v, faster than the %v the rate allows", n, size, rate, took, ideal)
	}
	if took > 80*time.Millisecond {
		t.Errorf("%d × %d B over a %d bps path took %v, want under 80ms (22.4ms at rate)", n, size, rate, took)
	}
}
