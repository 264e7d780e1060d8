//go:build linux && (amd64 || arm64)

// Batched socket I/O via raw recvmmsg/sendmmsg syscalls. This is the
// high-throughput half of the platform seam: one syscall moves up to
// ringDepth datagrams in either direction, with every msghdr, iovec and
// data buffer, and the send side's one sockaddr, preallocated at Start so
// the steady state performs zero heap allocations. The portable fallback (used on
// other platforms and under Config.NoBatchSyscalls) lives in shard.go; the
// two are differential-tested byte-identical on the wire.
//
// The mmsghdr layout below matches the 64-bit linux ABI (struct msghdr is
// 56 bytes, followed by a u32 msg_len and 4 bytes of padding), which is why
// this file is gated to amd64/arm64 rather than all linux.
package datapath

import (
	"fmt"
	"net/netip"
	"syscall"
	"unsafe"
)

// batchSyscallsAvailable gates Endpoint.initIO onto the mmsg path.
const batchSyscallsAvailable = true

// mmsghdr mirrors linux struct mmsghdr on 64-bit targets.
type mmsghdr struct {
	hdr    syscall.Msghdr
	msgLen uint32
	_      uint32
}

// UDP segmentation-offload plumbing. With GSO the whole transmit ring is
// handed to the kernel as ONE datagram plus a UDP_SEGMENT cmsg giving the
// frame size; the stack traverses once and segments at the edge (on
// loopback, a GRO-enabled receiving socket gets the super-datagram intact
// with a UDP_GRO cmsg, so per-frame kernel cost collapses on both sides).
// Constants are spelled out because the stdlib syscall table predates them.
const (
	solUDP     = 17
	udpSegment = 103 // SOL_UDP cmsg/sockopt: outgoing GSO segment size
	udpGRO     = 104 // SOL_UDP sockopt/cmsg: coalesce incoming segments

	// udpMaxSegments is the kernel's UDP_MAX_SEGMENTS limit per GSO send.
	udpMaxSegments = 64
	// gsoMaxBytes bounds one super-datagram (max IPv4 UDP payload).
	gsoMaxBytes = 65000
	// ctlBufLen is the per-message control-buffer size (one UDP_GRO cmsg
	// needs CMSG_SPACE(4) = 24 bytes; 64 keeps slots 8-aligned with room).
	ctlBufLen = 64
)

// batchIO is one shard's preallocated mmsg state. The recv and send
// closures are built once so RawConn.Read/Write are passed the same func
// values on every call (a per-call closure would allocate).
type batchIO struct {
	sh *pathShard

	rhdrs  [ringDepth]mmsghdr
	riovs  [ringDepth]syscall.Iovec
	recvN  int
	recvE  syscall.Errno
	recvFn func(fd uintptr) bool

	shdrs  [ringDepth]mmsghdr
	siovs  [ringDepth]syscall.Iovec
	raddr  []byte
	sendAt int // offset of the first unsent frame in the current flush
	sendHi int // one past the last frame in the current flush
	sendN  int
	sendE  syscall.Errno
	sendFn func(fd uintptr) bool

	// Receive state: gro records whether the probe turned UDP_GRO on; the
	// per-message control buffers (uint64s so cmsg headers are 8-aligned)
	// then carry the kernel's segment size after each recvmmsg. ring is the
	// anonymous mapping behind the receive slots (nil when they are
	// heap-backed); the shard's readLoop unmaps it on exit (release).
	gro  bool
	rctl [ringDepth * ctlBufLen / 8]uint64
	ring []byte

	// GSO transmit state: a dedicated msghdr whose iovec array gathers the
	// transmit ring and whose control message carries UDP_SEGMENT.
	gsoTx  bool
	gsoHdr syscall.Msghdr
	gsoCtl [3]uint64 // CMSG_SPACE(2) = 24 bytes, 8-aligned
	gsoFn  func(fd uintptr) bool
}

// newBatchIO allocates the shard's receive ring and wires both rings into
// mmsg headers aimed at remote.
func newBatchIO(sh *pathShard, remote netip.AddrPort) (*batchIO, error) {
	raddr, err := encodeSockaddr(remote)
	if err != nil {
		return nil, err
	}
	bio := &batchIO{sh: sh, raddr: raddr}

	// Probe segmentation-offload support on this socket. GSO support is
	// detected by clearing the socket-wide segment size (we send the real
	// size per-message via cmsg); GRO is enabled socket-wide.
	if !sh.ep.cfg.NoSegmentation {
		sh.rawc.Control(func(fd uintptr) {
			if syscall.SetsockoptInt(int(fd), solUDP, udpSegment, 0) == nil {
				bio.gsoTx = true
			}
			if syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil {
				bio.gro = true
			}
		})
	}
	// The ring is mapped rather than made: the heap would zero (and so
	// make resident) every 64 KiB slot, while a fresh anonymous mapping
	// costs only the pages the kernel writes. A failed mmap falls back to
	// the heap.
	slab, err := syscall.Mmap(-1, 0, ringDepth*rxSlotSize, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err == nil {
		bio.ring = slab
	} else {
		slab = make([]byte, ringDepth*rxSlotSize)
	}
	sh.rxBufs = carveSlots(slab, rxSlotSize)

	for i := range bio.rhdrs {
		bio.riovs[i].Base = &sh.rxBufs[i][0]
		bio.riovs[i].SetLen(rxSlotSize)
		bio.rhdrs[i].hdr.Iov = &bio.riovs[i]
		bio.rhdrs[i].hdr.Iovlen = 1
		bio.rhdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&bio.rctl[i*ctlBufLen/8]))

		bio.siovs[i].Base = &sh.txBufs[i][0]
		bio.shdrs[i].hdr.Name = &bio.raddr[0]
		bio.shdrs[i].hdr.Namelen = uint32(len(bio.raddr))
		bio.shdrs[i].hdr.Iov = &bio.siovs[i]
		bio.shdrs[i].hdr.Iovlen = 1
	}
	if bio.gsoTx {
		// cmsghdr{Len: CMSG_LEN(2)=18, Level: SOL_UDP, Type: UDP_SEGMENT}
		// followed by the u16 segment size, patched per flush.
		ctl := (*[24]byte)(unsafe.Pointer(&bio.gsoCtl[0]))
		*(*uint64)(unsafe.Pointer(&ctl[0])) = 18
		*(*int32)(unsafe.Pointer(&ctl[8])) = solUDP
		*(*int32)(unsafe.Pointer(&ctl[12])) = udpSegment
		bio.gsoHdr.Name = &bio.raddr[0]
		bio.gsoHdr.Namelen = uint32(len(bio.raddr))
		bio.gsoHdr.Iov = &bio.siovs[0]
		bio.gsoHdr.Control = &ctl[0]
		bio.gsoHdr.SetControllen(24)
	}
	bio.recvFn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&bio.rhdrs[0])), uintptr(len(bio.rhdrs)), 0, 0, 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			default:
				bio.recvN, bio.recvE = int(r1), errno
				return true
			}
		}
	}
	bio.sendFn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&bio.shdrs[bio.sendAt])), uintptr(bio.sendHi-bio.sendAt), 0, 0, 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			default:
				bio.sendN, bio.sendE = int(r1), errno
				return true
			}
		}
	}
	bio.gsoFn = func(fd uintptr) bool {
		for {
			r1, _, errno := syscall.Syscall(syscall.SYS_SENDMSG, fd,
				uintptr(unsafe.Pointer(&bio.gsoHdr)), 0)
			switch errno {
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false
			default:
				bio.sendN, bio.sendE = int(r1), errno
				return true
			}
		}
	}
	return bio, nil
}

// release unmaps the receive ring, if it is mapped. The shard's
// readLoop calls it on exit, after its last handleFrame, so nothing reads
// the ring afterwards; it is the only place ring memory is freed.
func (bio *batchIO) release() {
	if bio.ring == nil {
		return
	}
	bio.sh.rxBufs = nil
	syscall.Munmap(bio.ring)
	bio.ring = nil
}

// retarget re-aims the baked send headers at a new remote. Callers hold the
// shard's txMu (the send closures only run under it), so the sockaddr bytes
// are never rewritten mid-syscall. A same-family change rewrites the buffer
// in place; a family change swaps the buffer and repoints every header.
func (bio *batchIO) retarget(remote netip.AddrPort) error {
	raddr, err := encodeSockaddr(remote)
	if err != nil {
		return err
	}
	if len(raddr) == len(bio.raddr) {
		copy(bio.raddr, raddr)
		return nil
	}
	bio.raddr = raddr
	for i := range bio.shdrs {
		bio.shdrs[i].hdr.Name = &bio.raddr[0]
		bio.shdrs[i].hdr.Namelen = uint32(len(bio.raddr))
	}
	bio.gsoHdr.Name = &bio.raddr[0]
	bio.gsoHdr.Namelen = uint32(len(bio.raddr))
	return nil
}

// recvBatchMmsg pulls up to len(rxBufs) datagrams in one recvmmsg,
// blocking via the runtime poller when the socket is empty.
func (sh *pathShard) recvBatchMmsg() (int, error) {
	bio := sh.bio
	// The kernel rewrites msg_controllen per message (0 when it wrote no
	// cmsg); restore before reuse.
	for i := range bio.rhdrs {
		bio.rhdrs[i].hdr.SetControllen(ctlBufLen)
	}
	bio.recvN, bio.recvE = 0, 0
	if err := sh.rawc.Read(bio.recvFn); err != nil {
		return 0, err
	}
	if bio.recvE != 0 {
		return 0, bio.recvE
	}
	n := bio.recvN
	for i := 0; i < n; i++ {
		sh.rxLen[i] = int(bio.rhdrs[i].msgLen)
		sh.rxSeg[i] = 0
		if bio.rhdrs[i].hdr.Controllen >= 20 {
			// The only cmsg enabled on this socket is UDP_GRO:
			// cmsghdr{Len>=CMSG_LEN(4)=20, SOL_UDP, UDP_GRO} + int segsize.
			ctl := (*[ctlBufLen]byte)(unsafe.Pointer(&bio.rctl[i*ctlBufLen/8]))
			cl := *(*uint64)(unsafe.Pointer(&ctl[0]))
			level := *(*int32)(unsafe.Pointer(&ctl[8]))
			typ := *(*int32)(unsafe.Pointer(&ctl[12]))
			if cl >= 20 && level == solUDP && typ == udpGRO {
				sh.rxSeg[i] = int(*(*int32)(unsafe.Pointer(&ctl[16])))
			}
		}
	}
	return n, nil
}

// flushMmsgLocked sends txBufs[:txCnt]: as one GSO super-datagram when the
// pending frames are uniform (the kernel segments once at the edge), else
// with as few sendmmsg calls as the kernel allows (partial sends continue
// from the cut). Caller holds txMu.
func (sh *pathShard) flushMmsgLocked() error {
	bio := sh.bio
	if bio.gsoTx && sh.txCnt > 1 && sh.txCnt <= udpMaxSegments {
		if done, err := sh.flushGSOLocked(); done {
			return err
		}
	}
	for i := 0; i < sh.txCnt; i++ {
		bio.siovs[i].SetLen(sh.txLen[i])
	}
	bio.sendAt, bio.sendHi = 0, sh.txCnt
	for bio.sendAt < bio.sendHi {
		bio.sendN, bio.sendE = 0, 0
		if err := sh.rawc.Write(bio.sendFn); err != nil {
			sh.stats.socketErrors.Add(1)
			sh.txCnt = 0
			return err
		}
		if bio.sendE != 0 {
			sh.stats.socketErrors.Add(1)
			sh.txCnt = 0
			return fmt.Errorf("datapath: sendmmsg: %w", bio.sendE)
		}
		if bio.sendN <= 0 {
			break
		}
		bio.sendAt += bio.sendN
	}
	sh.txCnt = 0
	return nil
}

// flushGSOLocked tries to send the pending ring as one sendmsg carrying a
// UDP_SEGMENT cmsg. It reports done=false (and leaves the ring intact) when
// the frames are not GSO-shaped — non-uniform sizes or an oversized total —
// so the caller falls through to sendmmsg. A kernel rejection permanently
// disables GSO on this shard and falls back the same way. Caller holds txMu.
func (sh *pathShard) flushGSOLocked() (done bool, err error) {
	bio := sh.bio
	seg := sh.txLen[0]
	total := 0
	for i := 0; i < sh.txCnt; i++ {
		l := sh.txLen[i]
		total += l
		if l != seg && (i != sh.txCnt-1 || l > seg) {
			return false, nil // non-uniform: not segmentable
		}
	}
	if total > gsoMaxBytes {
		return false, nil
	}
	for i := 0; i < sh.txCnt; i++ {
		bio.siovs[i].SetLen(sh.txLen[i])
	}
	bio.gsoHdr.Iovlen = uint64(sh.txCnt)
	ctl := (*[24]byte)(unsafe.Pointer(&bio.gsoCtl[0]))
	*(*uint16)(unsafe.Pointer(&ctl[16])) = uint16(seg)
	bio.sendN, bio.sendE = 0, 0
	if err := sh.rawc.Write(bio.gsoFn); err != nil {
		sh.stats.socketErrors.Add(1)
		sh.txCnt = 0
		return true, err
	}
	if bio.sendE != 0 {
		// EINVAL/EIO here means this socket cannot GSO after all (probe
		// passed but the send path refused): drop to sendmmsg for good.
		bio.gsoTx = false
		return false, nil
	}
	sh.txCnt = 0
	return true, nil
}

// encodeSockaddr renders ap as a raw linux sockaddr (native-endian family,
// big-endian port).
func encodeSockaddr(ap netip.AddrPort) ([]byte, error) {
	addr := ap.Addr()
	if addr.Is4() || addr.Is4In6() {
		var sa syscall.RawSockaddrInet4
		sa.Family = syscall.AF_INET
		sa.Addr = addr.Unmap().As4()
		buf := make([]byte, syscall.SizeofSockaddrInet4)
		copy(buf, (*(*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(&sa)))[:])
		buf[2] = byte(ap.Port() >> 8)
		buf[3] = byte(ap.Port())
		return buf, nil
	}
	if addr.Is6() {
		var sa syscall.RawSockaddrInet6
		sa.Family = syscall.AF_INET6
		sa.Addr = addr.As16()
		sa.Scope_id = 0
		buf := make([]byte, syscall.SizeofSockaddrInet6)
		copy(buf, (*(*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(&sa)))[:])
		buf[2] = byte(ap.Port() >> 8)
		buf[3] = byte(ap.Port())
		return buf, nil
	}
	return nil, fmt.Errorf("datapath: unsupported remote address %v", ap)
}
