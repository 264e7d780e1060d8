package datapath

import (
	"errors"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// pathShard is the per-path execution unit: one bound UDP socket, a read
// loop goroutine that owns the receive ring, a transmit ring guarded by a
// shard-local mutex, and padded atomic counters. The Clove state the
// shards feed lives on the Endpoint, under its mu.
type pathShard struct {
	ep   *Endpoint
	idx  int
	port uint16
	conn *net.UDPConn
	rawc syscall.RawConn

	// Receive ring — owned by the readLoop goroutine and allocated at Start,
	// once initIO knows the I/O flavour. Every slot is rxSlotSize, a whole
	// UDP datagram, on every path. The batched path has ringDepth slots in
	// one anonymous mapping (heap if mmap fails), resident only where the
	// kernel has written and unmapped by readLoop as it exits. The portable
	// path reads one datagram at a time into a single heap slot. The race
	// detector tracks heap memory only, so it sees ring bytes on the
	// portable path alone. After a batch of n datagrams, rxLen[:n] holds
	// their lengths and rxSeg[:n] the GRO segment size (0 = the datagram is
	// a single frame).
	rxBufs [][]byte
	rxLen  [ringDepth]int
	rxSeg  [ringDepth]int

	// bio is the linux mmsghdr machinery (mmsg_linux.go); nil when the
	// portable one-at-a-time path is in use.
	bio *batchIO

	// Transmit ring: txCnt encoded frames pending in txBufs, flushed by one
	// batched syscall (or a portable write loop).
	txMu   sync.Mutex
	txBufs [][]byte
	txLen  [ringDepth]int
	txCnt  int

	stats shardStats
}

// shardStats is padded so shards on different cores do not false-share.
type shardStats struct {
	received         atomic.Int64
	ceObserved       atomic.Int64
	feedbackReceived atomic.Int64
	decodeErrors     atomic.Int64
	socketErrors     atomic.Int64
	probesAnswered   atomic.Int64
	probeEchoes      atomic.Int64
	_                [64]byte
}

func newPathShard(e *Endpoint, idx int, conn *net.UDPConn) (*pathShard, error) {
	rawc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	return &pathShard{
		ep:     e,
		idx:    idx,
		port:   uint16(conn.LocalAddr().(*net.UDPAddr).Port),
		conn:   conn,
		rawc:   rawc,
		txBufs: carveSlots(make([]byte, ringDepth*slotSize), slotSize),
	}, nil
}

// carveSlots cuts slab into fixed slots of size bytes. One contiguous slab
// per ring keeps slots cache-adjacent.
func carveSlots(slab []byte, size int) [][]byte {
	slots := make([][]byte, len(slab)/size)
	for i := range slots {
		slots[i] = slab[i*size : (i+1)*size : (i+1)*size]
	}
	return slots
}

// initIO selects the I/O implementation once the remote is known and
// allocates the receive ring to match: batched mmsg syscalls where the
// platform supports them, the portable netip path otherwise (or when
// forced by Config.NoBatchSyscalls, or when the remote's address family
// has no raw sockaddr form).
func (sh *pathShard) initIO(remote netip.AddrPort) {
	if batchSyscallsAvailable && !sh.ep.cfg.NoBatchSyscalls {
		if bio, err := newBatchIO(sh, remote); err == nil {
			sh.bio = bio
			return
		}
	}
	sh.rxBufs = [][]byte{make([]byte, rxSlotSize)}
}

// readLoop receives datagram batches until the endpoint closes. On a
// persistent socket error it backs off exponentially (errBackoffMin..
// errBackoffMax) instead of hot-looping, and counts the error; a closed
// socket ends the loop. The loop owns the receive ring: it releases it on
// exit, after its last handleFrame and before wg.Done, so neither Close nor
// a Drain that stops waiting can free memory the loop may still touch.
func (sh *pathShard) readLoop() {
	defer sh.ep.wg.Done()
	if sh.bio != nil {
		defer sh.bio.release()
	}
	backoff := errBackoffMin
	for {
		n, err := sh.recvBatch()
		if err != nil {
			select {
			case <-sh.ep.closed:
				return
			default:
			}
			sh.stats.socketErrors.Add(1)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			if !sleepOrClosed(sh.ep.closed, backoff) {
				return
			}
			backoff = nextBackoff(backoff)
			continue
		}
		backoff = errBackoffMin
		for i := 0; i < n; i++ {
			b := sh.rxBufs[i][:sh.rxLen[i]]
			if seg := sh.rxSeg[i]; seg > 0 && seg < len(b) {
				// GRO-coalesced super-datagram: every seg bytes is one
				// wire frame (the last may be shorter).
				for off := 0; off < len(b); off += seg {
					end := off + seg
					if end > len(b) {
						end = len(b)
					}
					sh.ep.handleFrame(sh, b[off:end])
				}
			} else {
				sh.ep.handleFrame(sh, b)
			}
		}
	}
}

// recvBatch fills the receive ring with as many datagrams as one syscall
// yields (>= 1), blocking via the runtime poller when none are queued.
func (sh *pathShard) recvBatch() (int, error) {
	if sh.bio != nil {
		return sh.recvBatchMmsg()
	}
	n, err := sh.conn.Read(sh.rxBufs[0])
	if err != nil {
		return 0, err
	}
	sh.rxLen[0] = n
	sh.rxSeg[0] = 0
	return 1, nil
}

// flushLocked sends the pending transmit ring. Caller holds txMu.
func (sh *pathShard) flushLocked() error {
	if sh.txCnt == 0 {
		return nil
	}
	if sh.bio != nil {
		return sh.flushMmsgLocked()
	}
	rap := sh.ep.remoteAP.Load()
	if rap == nil {
		sh.txCnt = 0
		return errNoRemote
	}
	var first error
	for i := 0; i < sh.txCnt; i++ {
		if _, err := sh.conn.WriteToUDPAddrPort(sh.txBufs[i][:sh.txLen[i]], *rap); err != nil {
			sh.stats.socketErrors.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	sh.txCnt = 0
	return first
}

// writeOne sends a single out-of-ring buffer (the oversize slow path).
func (sh *pathShard) writeOne(buf []byte) error {
	rap := sh.ep.remoteAP.Load()
	if rap == nil {
		return errNoRemote
	}
	_, err := sh.conn.WriteToUDPAddrPort(buf, *rap)
	if err != nil {
		sh.stats.socketErrors.Add(1)
	}
	return err
}

// sleepOrClosed sleeps for d unless closed fires first; it reports whether
// the sleep completed (false = endpoint closing).
func sleepOrClosed(closed <-chan struct{}, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-closed:
		return false
	case <-t.C:
		return true
	}
}

// nextBackoff doubles d, bounded at errBackoffMax.
func nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > errBackoffMax {
		d = errBackoffMax
	}
	return d
}
