package stats

import (
	"math"
	"math/rand"
	"testing"
)

func normalSamples(rng *rand.Rand, n int, mean, sd float64) *CDF {
	c := NewCDF(n)
	for i := 0; i < n; i++ {
		c.Add(mean + sd*rng.NormFloat64())
	}
	return c
}

func TestKSIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := normalSamples(rng, 2000, 0, 1)
	b := normalSamples(rng, 2000, 0, 1)
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic > 0.06 {
		t.Errorf("D = %v for same-distribution samples, want small", res.Statistic)
	}
	if res.PValue < 0.05 {
		t.Errorf("p = %v for same-distribution samples, want not significant", res.PValue)
	}
}

// TestKSTiedSamples: samples that tie heavily — probe times in whole RTTs —
// compare by their CDFs, which step only where the values change. Two
// identical samples of four values 21 times each read D = 0, not the 0.25
// (p = 0.011) of a gap measured inside a run of ties.
func TestKSTiedSamples(t *testing.T) {
	var tied []float64
	for _, v := range []float64{100, 200, 300, 400} {
		for k := 0; k < 21; k++ {
			tied = append(tied, v)
		}
	}
	res, err := KolmogorovSmirnov(FromSamples(tied), FromSamples(tied))
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 0 || res.PValue != 1 {
		t.Errorf("identical tied samples: D = %v, p = %v, want 0 and 1", res.Statistic, res.PValue)
	}
	// One value moved: the CDFs differ by one sample in 84 between 100 and
	// 200, nowhere else.
	moved := append([]float64(nil), tied...)
	moved[20] = 150
	res, err = KolmogorovSmirnov(FromSamples(tied), FromSamples(moved))
	if err != nil {
		t.Fatal(err)
	}
	if want := 1.0 / 84; math.Abs(res.Statistic-want) > 1e-12 {
		t.Errorf("one tied value moved: D = %v, want %v", res.Statistic, want)
	}
}

func TestKSDifferentDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := normalSamples(rng, 2000, 0, 1)
	b := normalSamples(rng, 2000, 1, 1) // shifted by one SD
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic < 0.3 {
		t.Errorf("D = %v for shifted distributions, want large", res.Statistic)
	}
	if res.PValue > 1e-6 {
		t.Errorf("p = %v for shifted distributions, want tiny", res.PValue)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KolmogorovSmirnov(&CDF{}, FromSamples([]float64{1})); err != ErrNoSamples {
		t.Errorf("err = %v, want ErrNoSamples", err)
	}
}

func TestKSStatisticBounds(t *testing.T) {
	// Completely disjoint samples: D must be 1.
	a := FromSamples([]float64{1, 2, 3})
	b := FromSamples([]float64{100, 200, 300})
	res, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statistic != 1 {
		t.Errorf("D = %v for disjoint samples, want 1", res.Statistic)
	}
	if res.PValue > 0.1 {
		t.Errorf("p = %v for disjoint samples", res.PValue)
	}
}

func TestKSSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := normalSamples(rng, 500, 0, 1)
	b := normalSamples(rng, 700, 0.5, 2)
	ab, err := KolmogorovSmirnov(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := KolmogorovSmirnov(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Statistic != ba.Statistic {
		t.Errorf("KS not symmetric: %v vs %v", ab.Statistic, ba.Statistic)
	}
}

func TestKsProbBounds(t *testing.T) {
	if ksProb(0) != 1 {
		t.Errorf("ksProb(0) = %v, want 1", ksProb(0))
	}
	if p := ksProb(5); p > 1e-9 {
		t.Errorf("ksProb(5) = %v, want ~0", p)
	}
	for _, l := range []float64{0.1, 0.5, 1, 2} {
		p := ksProb(l)
		if p < 0 || p > 1 {
			t.Errorf("ksProb(%v) = %v out of [0,1]", l, p)
		}
	}
}

func TestBootstrapGainCI(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// b is uniformly half of a: true gain = 0.5 at every percentile.
	a, b := NewCDF(500), NewCDF(500)
	for i := 0; i < 500; i++ {
		v := 100 + rng.Float64()*100
		a.Add(v)
		b.Add(v / 2)
	}
	ci, err := BootstrapGainCI(a, b, 75, 400, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Gain < 0.45 || ci.Gain > 0.55 {
		t.Errorf("gain = %v, want ~0.5", ci.Gain)
	}
	if ci.Lo > ci.Gain || ci.Hi < ci.Gain {
		t.Errorf("interval [%v, %v] does not contain point %v", ci.Lo, ci.Hi, ci.Gain)
	}
	if ci.Hi-ci.Lo > 0.2 {
		t.Errorf("interval [%v, %v] too wide for clean data", ci.Lo, ci.Hi)
	}
}

func TestBootstrapGainCIValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	full := FromSamples([]float64{1, 2, 3})
	if _, err := BootstrapGainCI(&CDF{}, full, 50, 100, rng); err == nil {
		t.Error("empty baseline accepted")
	}
	if _, err := BootstrapGainCI(full, full, 50, 1, rng); err == nil {
		t.Error("tiny iteration count accepted")
	}
	if _, err := BootstrapGainCI(full, full, 50, 100, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestBootstrapGainCIZeroBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := FromSamples([]float64{0, 0, 0})
	b := FromSamples([]float64{1, 2, 3})
	ci, err := BootstrapGainCI(a, b, 50, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Gain != 0 {
		t.Errorf("gain with zero baseline = %v, want 0", ci.Gain)
	}
}
