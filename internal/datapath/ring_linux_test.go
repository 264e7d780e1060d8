//go:build linux && (amd64 || arm64)

package datapath

// Receive-ring battery for the batched linux path: a whole 64 KiB GSO
// super-datagram landing in one GRO slot, set-up heap cost independent of
// the mapped receive ring, and every ring unmapped once its read loop exits.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestFullGSOFlushThroughGRO sends one ring's worth of frames that sum to
// just under gsoMaxBytes — uniform frames and a shorter last one, the widest
// super-datagram a flush can produce — and checks that the receiver's GRO
// slot holds it whole: every payload arrives byte-identical and in order.
func TestFullGSOFlushThroughGRO(t *testing.T) {
	const (
		batch   = ringDepth
		frame   = 2040 // fits slotSize
		lastLen = 1700
	)
	if total := (batch-1)*frame + lastLen; total > gsoMaxBytes || total < gsoMaxBytes-100 {
		t.Fatalf("flush is %d bytes, want just under %d", total, gsoMaxBytes)
	}
	cfg := DefaultConfig()
	cfg.FlowletGap = time.Hour // one flowlet: every frame rides one path
	a, b := pairCfg(t, cfg)
	if !a.shards[0].bio.gsoTx || !b.shards[0].bio.gro {
		t.Skip("UDP GSO/GRO not available on this kernel")
	}

	var mu sync.Mutex
	var got [][]byte
	b.SetOnRecv(func(p []byte) {
		mu.Lock()
		got = append(got, append([]byte(nil), p...))
		mu.Unlock()
	})
	want := make([][]byte, batch)
	for i := range want {
		n := frame - headerLen
		if i == batch-1 {
			n = lastLen - headerLen
		}
		want[i] = seqPayload(i, n)
	}
	// The batch-th Enqueue fills the ring and flushes it as one sendmsg.
	for _, p := range want {
		if err := a.Enqueue(p); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == batch }, "full GSO flush")

	mu.Lock()
	defer mu.Unlock()
	for i := range want {
		if string(got[i]) != string(want[i]) {
			t.Fatalf("payload %d: got %d bytes (seq %s), want %d bytes", i, len(got[i]), seqOf(got[i]), len(want[i]))
		}
	}
	if s := b.Stats(); s.Received != batch || s.DecodeErrors != 0 {
		t.Errorf("Received = %d, DecodeErrors = %d; want %d, 0", s.Received, s.DecodeErrors, batch)
	}
}

// TestStartHeapBytesIndependentOfGRORing pins the point of mapping the
// receive ring: NewEndpoint + Start allocate only the headers, the transmit
// ring and the port index on the heap, not Paths × ringDepth × 64 KiB of
// receive slots (≈8 MiB per endpoint at DefaultConfig as a heap slab).
func TestStartHeapBytesIndependentOfGRORing(t *testing.T) {
	if !BatchSyscallsSupported() {
		t.Skip("batched syscalls unavailable")
	}
	const n = 4
	cfg := DefaultConfig()
	eps := make([]*Endpoint, 0, n)
	defer func() {
		for _, e := range eps {
			e.Close()
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		e, err := NewEndpoint("127.0.0.1", cfg)
		if err != nil {
			t.Fatal(err)
		}
		eps = append(eps, e)
		if err := e.Start(fmt.Sprintf("127.0.0.1:%d", e.Ports()[0])); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, e := range eps {
		for _, sh := range e.shards {
			if sh.bio == nil || sh.bio.ring == nil {
				t.Fatalf("path %d: receive ring is not mapped", sh.idx)
			}
			if len(sh.rxBufs) != ringDepth || len(sh.rxBufs[0]) != rxSlotSize {
				t.Fatalf("receive ring has %d slots of %d bytes, want %d of %d", len(sh.rxBufs), len(sh.rxBufs[0]), ringDepth, rxSlotSize)
			}
		}
	}
	const bound = 768 << 10
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > bound {
		t.Errorf("NewEndpoint+Start allocated %d KiB of heap per endpoint, want <= %d KiB", per>>10, bound>>10)
	}
}

// TestRingUnmappedOnExit cycles endpoints through Start and Close (and Drain
// with a timeout too short to wait out the read loops) and checks the
// process's mappings return to their baseline: each read loop unmaps its
// receive ring. A leaked 2 MiB ring per path would add 512 MiB of address
// space; the line count alone would miss it, since the kernel merges
// adjacent anonymous mappings.
func TestRingUnmappedOnExit(t *testing.T) {
	if !BatchSyscallsSupported() {
		t.Skip("batched syscalls unavailable")
	}
	cycle := func(drain bool) {
		e, err := NewEndpoint("127.0.0.1", DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(fmt.Sprintf("127.0.0.1:%d", e.Ports()[0])); err != nil {
			t.Fatal(err)
		}
		if drain {
			e.Drain(time.Nanosecond) // may stop waiting before the loops exit
		}
		e.Close()
		for _, sh := range e.shards {
			if sh.bio.ring != nil || sh.rxBufs != nil {
				t.Fatalf("path %d: receive ring still held after Close", sh.idx)
			}
		}
	}
	cycle(false) // warm the runtime's own mappings
	lines0, bytes0 := procMaps(t)
	for i := 0; i < 64; i++ {
		cycle(i%4 == 3)
	}
	runtime.GC()
	lines, bytes := procMaps(t)
	if lines > lines0+16 {
		t.Errorf("/proc/self/maps grew from %d to %d lines", lines0, lines)
	}
	if bytes > bytes0+256<<20 {
		t.Errorf("mapped address space grew by %d MiB", (bytes-bytes0)>>20)
	}
}

// procMaps returns the number of mappings in /proc/self/maps and their
// total size in bytes.
func procMaps(t *testing.T) (lines int, bytes uint64) {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Skip(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lo, hi, _ := strings.Cut(strings.Fields(sc.Text())[0], "-")
		a, _ := strconv.ParseUint(lo, 16, 64)
		b, _ := strconv.ParseUint(hi, 16, 64)
		lines++
		bytes += b - a
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines, bytes
}
