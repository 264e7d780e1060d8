//go:build !linux || !(amd64 || arm64)

package datapath

import "net/netip"

// batchSyscallsAvailable is false where the raw recvmmsg/sendmmsg seam
// (mmsg_linux.go) is not built; every shard uses the portable
// one-datagram-per-syscall path in shard.go instead.
const batchSyscallsAvailable = false

// batchIO is never instantiated on this platform; the stubs below keep the
// shard code building and are unreachable because initIO leaves bio nil.
type batchIO struct{}

func newBatchIO(sh *pathShard, remote netip.AddrPort) (*batchIO, error) {
	panic("datapath: batched syscalls unavailable on this platform")
}

func (sh *pathShard) recvBatchMmsg() (int, error) {
	panic("datapath: batched syscalls unavailable on this platform")
}

func (sh *pathShard) flushMmsgLocked() error {
	panic("datapath: batched syscalls unavailable on this platform")
}

func (bio *batchIO) retarget(remote netip.AddrPort) error {
	panic("datapath: batched syscalls unavailable on this platform")
}

func (bio *batchIO) release() {
	panic("datapath: batched syscalls unavailable on this platform")
}
