package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCDFValidation(t *testing.T) {
	cases := []struct {
		name   string
		points []CDFPoint
	}{
		{"too few", []CDFPoint{{100, 1}}},
		{"not ending at 1", []CDFPoint{{100, 0.5}, {200, 0.9}}},
		{"non-monotone prob", []CDFPoint{{100, 0.6}, {200, 0.5}, {300, 1}}},
		{"non-monotone bytes", []CDFPoint{{300, 0.5}, {200, 1}}},
		{"zero bytes", []CDFPoint{{0, 0.5}, {200, 1}}},
		{"prob > 1", []CDFPoint{{100, 0.5}, {200, 1.5}}},
	}
	for _, c := range cases {
		if _, err := NewEmpiricalCDF(c.name, c.points); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	if _, err := NewEmpiricalCDF("ok", []CDFPoint{{100, 0.5}, {200, 1}}); err != nil {
		t.Errorf("valid CDF rejected: %v", err)
	}
}

func TestWebSearchShape(t *testing.T) {
	c := WebSearch()
	rng := rand.New(rand.NewSource(1))
	const n = 50000
	var mice, elephants int
	var total float64
	var miceBytes, elephantBytes float64
	for i := 0; i < n; i++ {
		s := float64(c.Sample(rng))
		total += s
		if s < 100e3 {
			mice++
			miceBytes += s
		}
		if s > 1e6 {
			elephants++
			elephantBytes += s
		}
	}
	miceFrac := float64(mice) / n
	if miceFrac < 0.45 || miceFrac > 0.75 {
		t.Errorf("mice fraction = %v, want majority of flows small", miceFrac)
	}
	// The heavy tail carries most of the bytes.
	if elephantBytes/total < 0.6 {
		t.Errorf("elephant byte share = %v, want > 0.6", elephantBytes/total)
	}
	mean := total / n
	if mean < 0.8e6 || mean > 3e6 {
		t.Errorf("empirical mean = %v, want ~1.6MB", mean)
	}
	// Analytic mean agrees with empirical within 20%.
	am := c.Mean()
	if math.Abs(am-mean)/mean > 0.2 {
		t.Errorf("analytic mean %v vs empirical %v", am, mean)
	}
}

func TestDataMiningShape(t *testing.T) {
	c := DataMining()
	rng := rand.New(rand.NewSource(2))
	const n = 20000
	tiny := 0
	for i := 0; i < n; i++ {
		if c.Sample(rng) <= 1000 {
			tiny++
		}
	}
	frac := float64(tiny) / n
	if frac < 0.5 || frac > 0.7 {
		t.Errorf("<=1KB fraction = %v, want ~0.6", frac)
	}
}

func TestScaled(t *testing.T) {
	c := WebSearch().Scaled(0.1)
	rng := rand.New(rand.NewSource(3))
	var total float64
	const n = 20000
	for i := 0; i < n; i++ {
		total += float64(c.Sample(rng))
	}
	mean := total / n
	full := WebSearch().Mean()
	if math.Abs(mean-full*0.1)/(full*0.1) > 0.25 {
		t.Errorf("scaled mean %v, want ~%v", mean, full*0.1)
	}
}

func TestArrivalRateForLoad(t *testing.T) {
	// 50% of 160Gbps = 10GB/s; 16 conns of 1MB mean flows
	// -> 10e9 / (16 * 1e6) = 625 flows/s/conn.
	got := ArrivalRateForLoad(0.5, 160e9, 16, 1e6)
	if math.Abs(got-625) > 1e-6 {
		t.Errorf("rate = %v, want 625", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on bad args")
		}
	}()
	ArrivalRateForLoad(0, 1, 1, 1)
}

// Property: samples are always within the distribution's support and
// positive.
func TestQuickSampleSupport(t *testing.T) {
	c := WebSearch()
	maxBytes := int64(30e6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := c.Sample(rng)
			if s <= 0 || s > maxBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(10))}); err != nil {
		t.Error(err)
	}
}

// Property: sampling is deterministic per seed.
func TestQuickSampleDeterministic(t *testing.T) {
	c := WebSearch()
	f := func(seed int64) bool {
		a := rand.New(rand.NewSource(seed))
		b := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			if c.Sample(a) != c.Sample(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}
