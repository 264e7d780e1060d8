package clove

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clove/internal/packet"
	"clove/internal/sim"
)

func flow(n int) packet.FiveTuple {
	return packet.FiveTuple{Src: 1, Dst: 2, SrcPort: uint16(1000 + n), DstPort: 80, Proto: packet.ProtoTCP}
}

func TestFlowletFirstPacketIsNew(t *testing.T) {
	ft := NewFlowletTable(100 * sim.Microsecond)
	e, isNew := ft.Touch(flow(0), 0)
	if !isNew || e == nil || e.ID != 0 {
		t.Fatalf("first packet: isNew=%v e=%v", isNew, e)
	}
}

func TestFlowletGapSemantics(t *testing.T) {
	gap := 100 * sim.Microsecond
	ft := NewFlowletTable(gap)
	f := flow(0)
	ft.Touch(f, 0)
	// Within the gap: same flowlet.
	if _, isNew := ft.Touch(f, gap); isNew {
		t.Error("packet exactly at gap counted as new flowlet (must be >)")
	}
	// Beyond the gap from the *last* packet: new flowlet.
	if e, isNew := ft.Touch(f, gap+gap+1); !isNew || e.ID != 1 {
		t.Errorf("gap exceeded but isNew=%v id=%d", isNew, e.ID)
	}
	if ft.Flowlets() != 2 {
		t.Errorf("Flowlets = %d, want 2", ft.Flowlets())
	}
}

func TestFlowletPortPinning(t *testing.T) {
	ft := NewFlowletTable(100)
	f := flow(0)
	e, _ := ft.Touch(f, 0)
	e.Port = 5555
	e2, isNew := ft.Touch(f, 50)
	if isNew || e2.Port != 5555 {
		t.Error("continuing flowlet lost its pinned port")
	}
}

func TestFlowletIndependentFlows(t *testing.T) {
	ft := NewFlowletTable(100)
	ft.Touch(flow(0), 0)
	_, isNew := ft.Touch(flow(1), 1)
	if !isNew {
		t.Error("distinct flow not detected as new")
	}
	if ft.Len() != 2 {
		t.Errorf("Len = %d", ft.Len())
	}
}

// An idle flow keeps its entry however many flows the table holds: its next
// packet starts the flow's next flowlet, not a fresh flow at ID 0.
func TestFlowletIdleFlowKeepsEntryAtAnySize(t *testing.T) {
	const gap, n = 100, 70_000 // more flows than a uint16 can count
	key := func(i int) packet.FiveTuple {
		return packet.FiveTuple{Src: packet.HostID(1 + i>>16), Dst: 2, SrcPort: uint16(i), DstPort: 80, Proto: packet.ProtoTCP}
	}
	ft := NewFlowletTable(gap)
	for i := 0; i < n; i++ {
		ft.Touch(key(i), sim.Time(i))
	}
	if ft.Len() != n {
		t.Fatalf("Len = %d after %d distinct flows, want %d", ft.Len(), n, n)
	}
	e, isNew := ft.Touch(key(0), sim.Time(n)+11*gap)
	if !isNew || e.ID != 1 {
		t.Errorf("idle flow 0: isNew=%v ID=%d, want a new flowlet with ID 1", isNew, e.ID)
	}
	if ft.Len() != n || ft.Flowlets() != n+1 {
		t.Errorf("Len = %d, Flowlets = %d; want %d and %d", ft.Len(), ft.Flowlets(), n, n+1)
	}
}

// Property: packets closer together than the gap never start a new flowlet.
func TestQuickFlowletNoSpuriousSplit(t *testing.T) {
	f := func(deltas []uint16) bool {
		gap := 1000 * sim.Time(1)
		ft := NewFlowletTable(gap)
		fl := flow(0)
		now := sim.Time(0)
		ft.Touch(fl, now)
		for _, d := range deltas {
			now += sim.Time(d % 1000) // always <= gap
			if _, isNew := ft.Touch(fl, now); isNew {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Error(err)
	}
}

func TestWRREqualWeightsRoundRobin(t *testing.T) {
	w := NewWRR([]uint16{1, 2, 3})
	counts := map[uint16]int{}
	for i := 0; i < 300; i++ {
		counts[w.Next()]++
	}
	for p, c := range counts {
		if c != 100 {
			t.Errorf("port %d picked %d/300", p, c)
		}
	}
}

func TestWRRProportions(t *testing.T) {
	w := NewWRR(nil)
	w.Reset([]uint16{1, 2, 3, 4}, []float64{0.1, 0.3, 0.3, 0.3})
	counts := map[uint16]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		counts[w.Next()]++
	}
	if got := counts[1]; got < 900 || got > 1100 {
		t.Errorf("light port picked %d/10000, want ~1000", got)
	}
	for _, p := range []uint16{2, 3, 4} {
		if got := counts[p]; got < 2900 || got > 3100 {
			t.Errorf("port %d picked %d/10000, want ~3000", p, got)
		}
	}
}

func TestWRRSmoothness(t *testing.T) {
	// With weights 5:1, the heavy port must not be picked 5 times in a row
	// followed by the light one — smooth WRR interleaves.
	w := NewWRR(nil)
	w.Reset([]uint16{7, 8}, []float64{5, 1})
	var seq []uint16
	for i := 0; i < 12; i++ {
		seq = append(seq, w.Next())
	}
	// The light port appears twice in 12 picks, roughly evenly spaced.
	idx := []int{}
	for i, p := range seq {
		if p == 8 {
			idx = append(idx, i)
		}
	}
	if len(idx) != 2 {
		t.Fatalf("light port picked %d times in 12: %v", len(idx), seq)
	}
	if idx[1]-idx[0] < 4 {
		t.Errorf("light picks bunched: %v", seq)
	}
}

func TestWRRZeroWeightsDegradeToRR(t *testing.T) {
	w := NewWRR(nil)
	w.Reset([]uint16{1, 2}, []float64{0, 0})
	counts := map[uint16]int{}
	for i := 0; i < 10; i++ {
		counts[w.Next()]++
	}
	if counts[1] != 5 || counts[2] != 5 {
		t.Errorf("zero-weight RR counts: %v", counts)
	}
}

func TestWRRPanics(t *testing.T) {
	w := NewWRR(nil)
	mustPanic(t, "empty Next", func() { w.Next() })
	mustPanic(t, "mismatched lengths", func() { w.Reset([]uint16{1}, []float64{1, 2}) })
	mustPanic(t, "negative weight", func() { w.Reset([]uint16{1}, []float64{-1}) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

// Property: empirical WRR frequencies converge to weights.
func TestQuickWRRFrequenciesMatchWeights(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 8 {
			raw = raw[:8]
		}
		ports := make([]uint16, len(raw))
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			ports[i] = uint16(i)
			weights[i] = float64(r%10) + 1
			total += weights[i]
		}
		w := NewWRR(nil)
		w.Reset(ports, weights)
		const n = 5000
		counts := make([]int, len(ports))
		for i := 0; i < n; i++ {
			counts[w.Next()]++
		}
		for i := range ports {
			want := weights[i] / total * n
			if math.Abs(float64(counts[i])-want) > want*0.05+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

func defaultWT() *WeightTable {
	return NewWeightTable(DefaultWeightTableConfig(100*sim.Microsecond), []uint16{10, 20, 30, 40})
}

func TestWeightTableInitialEqual(t *testing.T) {
	wt := defaultWT()
	for p, w := range wt.Weights() {
		if math.Abs(w-0.25) > 1e-9 {
			t.Errorf("port %d weight %v, want 0.25", p, w)
		}
	}
}

func TestWeightTableCongestionShiftsWeight(t *testing.T) {
	wt := defaultWT()
	wt.OnCongestion(10, 1000)
	w := wt.Weights()
	// Port 10 lost a third: 0.25 -> ~0.1667; others gained equally.
	if math.Abs(w[10]-0.25*2/3) > 1e-9 {
		t.Errorf("congested weight = %v, want %v", w[10], 0.25*2/3)
	}
	for _, p := range []uint16{20, 30, 40} {
		if w[p] <= 0.25 {
			t.Errorf("uncongested port %d did not gain: %v", p, w[p])
		}
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestWeightTableRedistributionSkipsCongested(t *testing.T) {
	wt := defaultWT()
	now := sim.Time(1000)
	wt.OnCongestion(10, now)
	wt.OnCongestion(20, now+1)
	w := wt.Weights()
	// 30 and 40 should hold the bulk.
	if w[30]+w[40] < 0.55 {
		t.Errorf("uncongested pair holds %v", w[30]+w[40])
	}
	if w[30] != w[40] {
		t.Errorf("equal recipients diverged: %v vs %v", w[30], w[40])
	}
}

func TestWeightTableAllCongested(t *testing.T) {
	wt := defaultWT()
	now := sim.Time(1000)
	if wt.AllCongested(now) {
		t.Error("fresh table reports all congested")
	}
	for _, p := range []uint16{10, 20, 30, 40} {
		wt.OnCongestion(p, now)
	}
	if !wt.AllCongested(now + 1) {
		t.Error("not all congested after marking every path")
	}
	// Congestion ages out.
	later := now + DefaultWeightTableConfig(100*sim.Microsecond).CongestedAge + 1
	if wt.AllCongested(later) {
		t.Error("congestion did not age out")
	}
}

func TestWeightTableFloor(t *testing.T) {
	wt := defaultWT()
	for i := 0; i < 200; i++ {
		wt.OnCongestion(10, sim.Time(1000+i))
	}
	if w := wt.Weights()[10]; w < 0.01 {
		t.Errorf("weight fell below floor: %v", w)
	}
}

// TestWeightTableFloorHoldsAfterRescale is the normalize regression test:
// the old single clamp-then-rescale pass clamped paths to the floor and then
// divided by the raised sum, pushing exactly the clamped paths back below
// the documented minimum. Water-filling must keep every weight at or above
// the floor after every feedback event.
func TestWeightTableFloorHoldsAfterRescale(t *testing.T) {
	cfg := DefaultWeightTableConfig(100 * sim.Microsecond)
	ports := make([]uint16, 40) // 40 * 0.02 = 0.8 < 1: floor is feasible
	for i := range ports {
		ports[i] = uint16(1000 + i)
	}
	wt := NewWeightTable(cfg, ports)
	// Congest every path but the first, repeatedly: 39 paths sink to the
	// floor while the survivor absorbs the mass. Check the invariant after
	// every event — the violation is largest right after a rescale.
	now := sim.Time(0)
	for r := 0; r < 20; r++ {
		for i := 1; i < len(ports); i++ {
			now++
			wt.OnCongestion(ports[i], now)
			var sum float64
			for p, w := range wt.Weights() {
				if w < cfg.Floor-1e-12 {
					t.Fatalf("round %d: port %d below floor: %v < %v", r, p, w, cfg.Floor)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("round %d: weights sum to %v", r, sum)
			}
		}
	}
}

// TestWeightTableFloorInfeasible64Paths: with 64 paths the default floor is
// infeasible (64 * 0.02 = 1.28 > 1) — no distribution can satisfy it, and
// the table must fall back to uniform weights instead of looping or
// producing a sum above 1.
func TestWeightTableFloorInfeasible64Paths(t *testing.T) {
	cfg := DefaultWeightTableConfig(100 * sim.Microsecond)
	ports := make([]uint16, 64)
	for i := range ports {
		ports[i] = uint16(2000 + i)
	}
	wt := NewWeightTable(cfg, ports)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		now++
		wt.OnCongestion(ports[i%len(ports)], now)
	}
	eq := 1.0 / float64(len(ports))
	var sum float64
	for p, w := range wt.Weights() {
		if math.Abs(w-eq) > 1e-9 {
			t.Fatalf("port %d weight %v, want uniform %v under infeasible floor", p, w, eq)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v", sum)
	}
}

func TestWeightTableSinglePathStable(t *testing.T) {
	wt := NewWeightTable(DefaultWeightTableConfig(100), []uint16{10})
	wt.OnCongestion(10, 50)
	if w := wt.Weights()[10]; math.Abs(w-1) > 1e-9 {
		t.Errorf("single path weight %v", w)
	}
	if wt.NextPort() != 10 {
		t.Error("single path NextPort")
	}
}

func TestWeightTableUnknownPortIgnored(t *testing.T) {
	wt := defaultWT()
	wt.OnCongestion(999, 10)
	wt.OnUtilization(999, 0.5, 10)
	for _, w := range wt.Weights() {
		if math.Abs(w-0.25) > 1e-9 {
			t.Error("unknown-port feedback changed weights")
		}
	}
}

func TestWeightTableSetPortsKeepsState(t *testing.T) {
	wt := defaultWT()
	wt.OnCongestion(10, 1000)
	before := wt.Weights()
	// Rediscovery: 10 and 20 survive, 30/40 replaced by 50/60.
	wt.SetPorts([]uint16{10, 20, 50, 60})
	after := wt.Weights()
	if after[10] >= after[20] {
		t.Errorf("retained congested path lost its penalty: %v", after)
	}
	// Relative order of retained ports preserved.
	if (before[10] < before[20]) != (after[10] < after[20]) {
		t.Error("retained ordering flipped")
	}
	var sum float64
	for _, v := range after {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("sum after SetPorts = %v", sum)
	}
	st := wt.States()
	if len(st) != 4 {
		t.Fatalf("states len %d", len(st))
	}
}

func TestLeastUtilizedPort(t *testing.T) {
	wt := defaultWT()
	now := sim.Time(1000)
	wt.OnUtilization(10, 0.9, now)
	wt.OnUtilization(20, 0.3, now)
	wt.OnUtilization(30, 0.5, now)
	// 40 never reported: effective 0, least utilized.
	if got := wt.LeastUtilizedPort(now + 1); got != 40 {
		t.Errorf("least utilized = %d, want unreported 40", got)
	}
	wt.OnUtilization(40, 0.6, now)
	if got := wt.LeastUtilizedPort(now + 1); got != 20 {
		t.Errorf("least utilized = %d, want 20", got)
	}
	// Samples age out -> port 10 falls back to 0.
	later := now + DefaultWeightTableConfig(100*sim.Microsecond).UtilAge + 1
	wt.OnUtilization(20, 0.3, later)
	if got := wt.LeastUtilizedPort(later + 1); got == 20 {
		t.Error("fresh nonzero sample beat aged-out zeros")
	}
}

// TestLeastUtilizedPortAllStaleSpreads is the Clove-INT herding regression
// test: before any utilization report arrives (or after every report has
// aged out), each path's effective utilization is zero and the old
// tie-breaking pick returned table index 0 for every flowlet. The choice
// must instead fall back to weighted round-robin and spread flowlets evenly.
func TestLeastUtilizedPortAllStaleSpreads(t *testing.T) {
	wt := defaultWT()
	counts := map[uint16]int{}
	const picks = 400
	for i := 0; i < picks; i++ {
		counts[wt.LeastUtilizedPort(sim.Time(1000+i))]++
	}
	if len(counts) != 4 {
		t.Fatalf("all-stale picks herded onto %d ports: %v", len(counts), counts)
	}
	for p, c := range counts {
		if c != picks/4 {
			t.Errorf("port %d picked %d/%d, want even spread %d", p, c, picks, picks/4)
		}
	}

	// A report makes the freshness-based choice take over again...
	now := sim.Time(10_000)
	wt.OnUtilization(20, 0.3, now)
	if got := wt.LeastUtilizedPort(now + 1); got == 20 {
		t.Error("fresh nonzero sample beat never-reported zeros (optimistic re-probe broken)")
	}
	// ...and once it ages out, picks spread again instead of herding.
	later := now + DefaultWeightTableConfig(100*sim.Microsecond).UtilAge + 1
	counts = map[uint16]int{}
	for i := 0; i < picks; i++ {
		counts[wt.LeastUtilizedPort(later+sim.Time(i))]++
	}
	if len(counts) != 4 {
		t.Fatalf("aged-out picks herded onto %d ports: %v", len(counts), counts)
	}
}

// Property: under any sequence of congestion events, weights stay a valid
// distribution and every weight respects the floor.
func TestQuickWeightsStayDistribution(t *testing.T) {
	cfg := DefaultWeightTableConfig(100)
	f := func(events []uint8) bool {
		wt := NewWeightTable(cfg, []uint16{1, 2, 3, 4, 5})
		now := sim.Time(0)
		for _, e := range events {
			now += sim.Time(e)
			wt.OnCongestion(uint16(e%5)+1, now)
		}
		var sum float64
		for _, w := range wt.Weights() {
			if w < cfg.Floor/2 || w > 1 {
				return false
			}
			sum += w
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// Property: WRR pick frequencies track the weight table after congestion.
func TestWeightTableWRRIntegration(t *testing.T) {
	wt := defaultWT()
	wt.OnCongestion(10, 1000)
	wt.OnCongestion(10, 2000)
	counts := map[uint16]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[wt.NextPort()]++
	}
	w := wt.Weights()
	for p, c := range counts {
		want := w[p] * n
		if math.Abs(float64(c)-want) > want*0.1+5 {
			t.Errorf("port %d picked %d, want ~%.0f", p, c, want)
		}
	}
}
