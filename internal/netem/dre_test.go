package netem

import (
	"math"
	"strings"
	"testing"

	"clove/internal/packet"
	"clove/internal/sim"
)

// refDRE is DRE as it was before decayTo returned early: it divides on every
// read and write, however little time has passed.
type refDRE struct {
	sim       *sim.Simulator
	x         float64
	alpha     float64
	tdre      sim.Time
	rateBps   int64
	lastDecay sim.Time
}

func (d *refDRE) decayTo(now sim.Time) {
	if now <= d.lastDecay {
		return
	}
	steps := int64(now-d.lastDecay) / int64(d.tdre)
	if steps <= 0 {
		return
	}
	if steps > 64 {
		d.x = 0
	} else {
		for i := int64(0); i < steps; i++ {
			d.x *= 1 - d.alpha
		}
	}
	d.lastDecay += sim.Time(steps) * d.tdre
}

func (d *refDRE) Add(size int) {
	d.decayTo(d.sim.Now())
	d.x += float64(size)
}

func (d *refDRE) Utilization() float64 {
	d.decayTo(d.sim.Now())
	full := float64(d.rateBps) / 8 * d.tdre.Seconds() / d.alpha
	if full <= 0 {
		return 0
	}
	return d.x / full
}

// FuzzDREMatchesReference runs DRE and refDRE side by side through a
// program of clock steps (below one Tdre, up to a few, and past the 64-step
// reset), Add, Utilization and SetRate, and fails on the first register,
// decay stamp or reading that is not bit-equal. Each operation is two bytes:
// an opcode and an argument.
func FuzzDREMatchesReference(f *testing.F) {
	f.Add([]byte{2, 200, 0, 3, 3, 0, 2, 9, 1, 4, 3, 0})
	f.Add([]byte{2, 255, 2, 255, 1, 255, 3, 0, 1, 255, 3, 0, 2, 1, 0, 255, 3, 0})
	f.Add([]byte{2, 40, 4, 3, 0, 130, 2, 40, 0, 129, 3, 0, 4, 99, 3, 0})
	f.Add([]byte{2, 200, 1, 4, 3, 0}) // a read exactly one Tdre after the add
	f.Fuzz(func(t *testing.T, prog []byte) {
		s := sim.New(1)
		d := NewDRE(s, 10e9)
		ref := &refDRE{sim: s, alpha: DefaultDREAlpha, tdre: DefaultDREInterval, rateBps: 10e9}
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i]%5, int64(prog[i+1])
			switch op {
			case 0: // 0–40 µs: mostly under one Tdre
				s.RunUntil(s.Now() + sim.Time(arg*157))
			case 1: // 0–64 Tdre, in quarter steps
				s.RunUntil(s.Now() + sim.Time(arg)*DefaultDREInterval/4)
			case 2:
				d.Add(64 + int(arg)*6)
				ref.Add(64 + int(arg)*6)
			case 3:
				if got, want := d.Utilization(), ref.Utilization(); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("op %d at %v: Utilization() = %v, reference %v", i/2, s.Now(), got, want)
				}
			case 4:
				d.SetRate((arg + 1) * 1e8)
				ref.rateBps = (arg + 1) * 1e8
			}
			if math.Float64bits(d.x) != math.Float64bits(ref.x) || d.lastDecay != ref.lastDecay {
				t.Fatalf("op %d at %v: register %v decayed at %v, reference %v at %v",
					i/2, s.Now(), d.x, d.lastDecay, ref.x, ref.lastDecay)
			}
		}
	})
}

// TestUtilizationMisusePanics: reading the utilization of a link whose
// topology does not track it, and turning tracking on after a link has
// transmitted, are bugs and panic with the link's name.
func TestUtilizationMisusePanics(t *testing.T) {
	mustPanic := func(what, name string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, name) {
				t.Errorf("%s: panic %v, want one naming %s", what, r, name)
			}
		}()
		f()
	}
	s := sim.New(1)
	topo := NewTopology(s)
	sw := topo.AddSwitch("S")
	cfg := LinkConfig{RateBps: 10e9, Delay: sim.Microsecond}
	h := topo.AddHost("h0", sw, cfg, cfg)
	topo.AddHost("h1", sw, cfg, cfg)
	topo.ComputeRoutes()
	up := h.Uplink()
	mustPanic("untracked read", up.Name(), func() { up.Utilization() })
	p := topo.Pool().Get()
	p.Kind = packet.KindData
	p.Inner = packet.FiveTuple{Src: 0, Dst: 1, SrcPort: 1, DstPort: 2, Proto: packet.ProtoTCP}
	h.Send(p)
	s.Run()
	mustPanic("tracking after a transmission", up.Name(), topo.TrackUtilization)
}
