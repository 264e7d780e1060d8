// Package discovery implements Clove's Paris-traceroute-style path
// discovery (Sec. 3.1): for each destination hypervisor, probes with
// randomized encapsulation source ports and incrementing TTLs map candidate
// ports to the sequence of switch egress links they traverse; a greedy
// heuristic then selects k ports whose paths share the fewest links.
// Discovery repeats periodically to track topology changes.
package discovery

import (
	"cmp"
	"math"
	"slices"

	"clove/internal/packet"
	"clove/internal/sim"
	"clove/internal/vswitch"
)

// Path is one discovered port→path mapping.
type Path struct {
	Port  uint16
	Links []packet.LinkID // switch egress links, hop by hop
	Hops  int             // path length in switches
}

// Config parameterizes the prober.
type Config struct {
	// CandidatePorts probed per destination per round.
	CandidatePorts int
	// MaxTTL bounds the traceroute depth (must exceed the fabric diameter).
	MaxTTL int
	// K is how many minimally-overlapping paths to select.
	K int
	// ResponseWait is how long a round waits for echoes before assembling.
	ResponseWait sim.Time
	// Interval between periodic rounds per destination ("every few
	// seconds", Sec. 4; short in simulation).
	Interval sim.Time
}

// DefaultConfig returns prober parameters suitable for the paper fabric.
func DefaultConfig(rtt sim.Time) Config {
	return Config{
		CandidatePorts: 32,
		MaxTTL:         5,
		K:              4,
		ResponseWait:   20 * rtt,
		Interval:       200 * sim.Millisecond,
	}
}

// Stats counts prober activity.
type Stats struct {
	Rounds          int64
	ProbesSent      int64
	EchoesReceived  int64
	IncompletePorts int64
	PathSetUpdates  int64
}

// round is one in-flight discovery round toward a destination. Only the
// echoed link ID is kept per hop — the echo packet itself belongs to the
// vswitch and is recycled as soon as the handler returns.
type round struct {
	dst    packet.HostID
	ports  []uint16
	echoes map[uint16]map[int]packet.LinkID // port -> hop -> echoed egress link
}

// Prober drives discovery through one hypervisor's virtual switch and
// installs results into its path policy.
type Prober struct {
	sim *sim.Simulator
	vsw *vswitch.VSwitch
	cfg Config

	nextProbeID uint32
	rounds      map[uint32]*round
	cancels     []func()

	// OnPaths, when set, observes every completed round's selection.
	OnPaths func(dst packet.HostID, ports []uint16, paths []Path)

	stats Stats
}

// NewProber creates a prober bound to vsw and installs itself as the
// vswitch's probe-echo handler.
func NewProber(s *sim.Simulator, vsw *vswitch.VSwitch, cfg Config) *Prober {
	p := &Prober{sim: s, vsw: vsw, cfg: cfg, rounds: map[uint32]*round{}}
	vsw.OnProbeEcho = p.handleEcho
	return p
}

// Stats returns a snapshot of the counters.
func (p *Prober) Stats() Stats { return p.stats }

// Start begins periodic discovery toward the given destinations (the paper
// probes only hypervisors with active traffic). An immediate first round
// runs at once. Stop cancels the periodic rounds.
func (p *Prober) Start(dsts []packet.HostID) {
	for _, dst := range dsts {
		p.Discover(dst)
		cancel := p.sim.Ticker(p.cfg.Interval, func() { p.Discover(dst) })
		p.cancels = append(p.cancels, cancel)
	}
}

// Stop cancels periodic probing.
func (p *Prober) Stop() {
	for _, c := range p.cancels {
		c()
	}
	p.cancels = nil
}

// Discover runs one probing round toward dst: CandidatePorts random ports x
// MaxTTL probes, then after ResponseWait assembles paths and installs the
// selected ports into the policy.
func (p *Prober) Discover(dst packet.HostID) {
	p.stats.Rounds++
	id := p.nextProbeID
	p.nextProbeID++
	r := &round{dst: dst, echoes: map[uint16]map[int]packet.LinkID{}}
	rng := p.sim.Rand()
	for len(r.ports) < p.cfg.CandidatePorts {
		if port := uint16(32768 + rng.Intn(32768)); !slices.Contains(r.ports, port) {
			r.ports = append(r.ports, port)
		}
	}
	p.rounds[id] = r
	for _, port := range r.ports {
		for ttl := 1; ttl <= p.cfg.MaxTTL; ttl++ {
			p.vsw.SendProbe(dst, port, ttl, id)
			p.stats.ProbesSent++
		}
	}
	p.sim.After(p.cfg.ResponseWait, func() { p.finish(id) })
}

func (p *Prober) handleEcho(echo *packet.Packet) {
	r := p.rounds[echo.ProbeID]
	if r == nil {
		return // late echo from a closed round
	}
	p.stats.EchoesReceived++
	hops := r.echoes[echo.ProbePort]
	if hops == nil {
		hops = map[int]packet.LinkID{}
		r.echoes[echo.ProbePort] = hops
	}
	hops[echo.HopIndex] = echo.EchoLink
}

// finish assembles complete paths from echoes and installs the selection.
func (p *Prober) finish(id uint32) {
	r := p.rounds[id]
	if r == nil {
		return
	}
	delete(p.rounds, id)

	var paths []Path
	for _, port := range r.ports {
		path, ok := assemblePath(port, r.echoes[port])
		if !ok {
			p.stats.IncompletePorts++
			continue
		}
		paths = append(paths, path)
	}
	if len(paths) == 0 {
		return
	}
	selected := SelectDisjoint(paths, p.cfg.K)
	ports := make([]uint16, len(selected))
	for i, s := range selected {
		ports[i] = s.Port
	}
	p.vsw.SetPaths(r.dst, ports)
	p.stats.PathSetUpdates++
	if p.OnPaths != nil {
		p.OnPaths(r.dst, ports, selected)
	}
}

// assemblePath orders a port's echoes by hop index: switch echoes carry the
// egress link chosen at that hop; an EchoLink of -1 marks the destination
// host, terminating the path. The path is complete when hops 1..end are all
// present.
func assemblePath(port uint16, hops map[int]packet.LinkID) (Path, bool) {
	if len(hops) == 0 {
		return Path{}, false
	}
	path := Path{Port: port}
	for h := 1; ; h++ {
		link, ok := hops[h]
		if !ok {
			return Path{}, false // lost echo: incomplete trace
		}
		if link == -1 {
			path.Hops = h - 1
			return path, true
		}
		path.Links = append(path.Links, link)
	}
}

// SelectDisjoint greedily picks up to k paths minimizing link overlap: it
// starts from the lowest-port candidate and repeatedly adds the path sharing
// the fewest links with the selection so far, the lowest port winning ties.
// Duplicate paths (identical link sets) are skipped while distinct
// candidates remain. It sorts paths by port in place — unless they already
// are — and, for up to 64 candidates, allocates only the result. It is
// Selector's greedy with every candidate offered at once.
func SelectDisjoint(paths []Path, k int) []Path {
	if len(paths) == 0 || k <= 0 {
		return nil
	}
	byPort := func(a, b Path) int { return cmp.Compare(a.Port, b.Port) }
	if !slices.IsSortedFunc(paths, byPort) {
		slices.SortFunc(paths, byPort)
	}
	// The buffers, sized for every pick, live on the stack up to 64
	// candidates, links and picks; with nothing selected yet, every overlap
	// is zero. The result is a copy, so that no buffer escapes with it.
	var overlapBuf [64]int32
	var usedBuf [64]packet.LinkID
	var selectedBuf [64]Path
	g := greedy{
		k:        k,
		paths:    paths,
		overlap:  slices.Grow(overlapBuf[:0], len(paths))[:len(paths)],
		used:     usedBuf[:0],
		selected: slices.Grow(selectedBuf[:0], min(k, len(paths))),
	}
	for _, p := range paths {
		g.used = slices.Grow(g.used, min(k, len(paths))*len(p.Links))
	}
	g.advance(true)
	return append(make([]Path, 0, len(g.selected)), g.selected...)
}

// Selector is SelectDisjoint's greedy fed one candidate at a time, in
// ascending port order, so that a caller enumerating candidates can stop
// once the k picks are decided. Every candidate must end in the same final
// link — the destination host's one inbound link, as every path toward a
// host does — so once the first pick is made no candidate shares fewer than
// sharedFinal links with the selection. A step is therefore decided as soon
// as a candidate already offered shares only that one: a later candidate
// cannot share fewer, and ties go to the lower port. A step that meets the
// duplicate rule while no distinct candidate has been offered waits for one,
// or for Finish. The zero Selector is ready for Reset; its buffers are
// reused across selections.
type Selector struct {
	g greedy
}

// sharedFinal is the least overlap any candidate has with a non-empty
// selection: all of them end in the same final link.
const sharedFinal = 1

// Reset starts a selection of up to k paths.
func (s *Selector) Reset(k int) {
	g := &s.g
	g.k = k
	g.paths, g.overlap, g.used, g.selected = g.paths[:0], g.overlap[:0], g.used[:0], g.selected[:0]
}

// Add offers the next candidate, whose port must exceed every earlier one's
// and whose last link must be the first candidate's; it panics otherwise.
// It reports whether the selection is decided, so that no later candidate
// can change it.
func (s *Selector) Add(p Path) bool {
	g := &s.g
	if len(p.Links) == 0 {
		panic("discovery: Selector.Add: candidate has no links")
	}
	if n := len(g.paths); n > 0 {
		first := g.paths[0].Links
		if p.Port <= g.paths[n-1].Port {
			panic("discovery: Selector.Add: ports out of order")
		}
		if p.Links[len(p.Links)-1] != first[len(first)-1] {
			panic("discovery: Selector.Add: candidate does not end in the shared final link")
		}
	}
	var o int32
	for _, l := range p.Links {
		if slices.Contains(g.used, l) {
			o++
		}
	}
	g.paths, g.overlap = append(g.paths, p), append(g.overlap, o)
	g.selected = slices.Grow(g.selected, min(g.k, len(g.paths))-len(g.selected))
	g.used = slices.Grow(g.used, (g.k-len(g.selected))*len(p.Links))
	g.advance(false)
	return len(g.selected) >= g.k
}

// Finish completes the selection over the candidates offered, none being
// still to come, and returns it. The result is valid until the next Reset.
func (s *Selector) Finish() []Path {
	s.g.advance(true)
	return s.g.selected
}

// greedy is the selection state. overlap[i] counts paths[i]'s links the
// selection already uses, or is taken once paths[i] has been picked or
// skipped. A pick bumps the counts by its links new to the selection, so no
// set is ever rebuilt. Its owner makes room in selected and used for every
// pick to come, so pick only reslices them: an append through the pointer
// would move SelectDisjoint's stack buffers to the heap.
type greedy struct {
	k        int
	paths    []Path
	overlap  []int32
	used     []packet.LinkID
	selected []Path
}

// taken marks a candidate the greedy has picked or skipped.
const taken = -1

// advance takes greedy steps while the candidates offered decide them; with
// complete set, no more candidates will come.
func (g *greedy) advance(complete bool) {
	for len(g.selected) < g.k {
		best, bestOverlap := -1, int32(math.MaxInt32)
		for i, o := range g.overlap {
			if o != taken && o < bestOverlap {
				best, bestOverlap = i, o
			}
		}
		if best < 0 || !complete && bestOverlap > sharedFinal {
			break
		}
		g.overlap[best] = taken
		// Skip exact duplicates of already-selected paths unless nothing
		// else remains (k distinct paths may simply not exist).
		p := g.paths[best]
		if int(bestOverlap) == len(p.Links) && isDuplicate(g.selected, p) {
			if g.hasNonDuplicate() {
				continue
			}
			if !complete {
				g.overlap[best] = bestOverlap // a later candidate may differ
				break
			}
		}
		g.pick(best)
	}
}

// pick appends paths[p] to the selection, within the room its owner made,
// and bumps every other candidate's overlap by the links it adds.
func (g *greedy) pick(p int) {
	g.selected = g.selected[:len(g.selected)+1]
	g.selected[len(g.selected)-1] = g.paths[p]
	fresh := len(g.used)
	for _, l := range g.paths[p].Links {
		if !slices.Contains(g.used, l) {
			g.used = g.used[:len(g.used)+1]
			g.used[len(g.used)-1] = l
		}
	}
	added := g.used[fresh:]
	// A 64-bit filter over the added links rejects most candidate links
	// with one test.
	var filter uint64
	for _, l := range added {
		filter |= 1 << (uint(l) % 64)
	}
	for i, o := range g.overlap {
		if o == taken {
			continue
		}
		for _, l := range g.paths[i].Links {
			if filter&(1<<(uint(l)%64)) != 0 && slices.Contains(added, l) {
				g.overlap[i]++
			}
		}
	}
}

// hasNonDuplicate reports whether a candidate not yet taken differs from
// every selected path.
func (g *greedy) hasNonDuplicate() bool {
	for i, p := range g.paths {
		if g.overlap[i] != taken && !isDuplicate(g.selected, p) {
			return true
		}
	}
	return false
}

func isDuplicate(selected []Path, cand Path) bool {
	for _, s := range selected {
		if slices.Equal(s.Links, cand.Links) {
			return true
		}
	}
	return false
}
