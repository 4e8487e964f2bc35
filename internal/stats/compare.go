package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// This file provides the two-sample comparison machinery the reproduction
// report uses to say something stronger than "the medians differ": a
// Kolmogorov–Smirnov distance with asymptotic significance, and bootstrap
// confidence intervals for percentile gains.

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// Statistic is D, the maximum vertical distance between the two
	// empirical CDFs, in [0, 1].
	Statistic float64 `json:"statistic"`
	// PValue is the asymptotic two-sided significance: the probability of
	// observing a distance this large if both samples came from the same
	// distribution.
	PValue float64 `json:"pValue"`
}

// KolmogorovSmirnov computes the two-sample KS test between a and b.
func KolmogorovSmirnov(a, b *CDF) (KSResult, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return KSResult{}, ErrNoSamples
	}
	as, bs := a.Samples(), b.Samples()

	// Walk both sorted sample sets, tracking the max CDF gap. The gap is
	// taken only once every copy of a value, in both samples, is behind the
	// pointers: the CDFs step there, and a gap measured inside a run of ties
	// is no gap between them.
	var d float64
	i, j := 0, 0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		var v float64
		if as[i] <= bs[j] {
			v = as[i]
			i++
		} else {
			v = bs[j]
			j++
		}
		for i < len(as) && as[i] == v {
			i++
		}
		for j < len(bs) && bs[j] == v {
			j++
		}
		gap := math.Abs(float64(i)/na - float64(j)/nb)
		if gap > d {
			d = gap
		}
	}

	// Asymptotic p-value via the Kolmogorov distribution.
	ne := na * nb / (na + nb)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{Statistic: d, PValue: ksProb(lambda)}, nil
}

// ksProb is the Kolmogorov distribution tail Q(lambda) = 2 sum_{k>=1}
// (-1)^(k-1) exp(-2 k^2 lambda^2), clamped to [0, 1].
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*lambda*lambda)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// GainCI is a bootstrap confidence interval for a percentile gain.
type GainCI struct {
	// Percentile the gain was evaluated at, in [0, 100].
	Percentile float64 `json:"percentile"`
	// Gain is the point estimate (a_p - b_p) / a_p.
	Gain float64 `json:"gain"`
	// Lo and Hi bound the central 95% bootstrap interval.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// BootstrapGainCI estimates a 95% confidence interval for the relative gain
// of b over a at the given percentile by resampling both sets `iters` times
// with the supplied RNG. iters of ~1000 gives stable two-digit intervals.
func BootstrapGainCI(a, b *CDF, percentile float64, iters int, rng *rand.Rand) (GainCI, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return GainCI{}, ErrNoSamples
	}
	if iters < 10 {
		return GainCI{}, fmt.Errorf("stats: bootstrap iters %d too small", iters)
	}
	if rng == nil {
		return GainCI{}, fmt.Errorf("stats: nil rng")
	}
	point, err := gainAt(a, b, percentile)
	if err != nil {
		return GainCI{}, err
	}

	as, bs := a.Samples(), b.Samples()
	gains := make([]float64, 0, iters)
	ra := make([]float64, len(as))
	rb := make([]float64, len(bs))
	for it := 0; it < iters; it++ {
		for i := range ra {
			ra[i] = as[rng.Intn(len(as))]
		}
		for i := range rb {
			rb[i] = bs[rng.Intn(len(bs))]
		}
		g, err := gainAt(FromSamples(ra), FromSamples(rb), percentile)
		if err != nil {
			return GainCI{}, err
		}
		gains = append(gains, g)
	}
	sort.Float64s(gains)
	lo := gains[int(0.025*float64(len(gains)))]
	hi := gains[int(0.975*float64(len(gains)))]
	return GainCI{Percentile: percentile, Gain: point, Lo: lo, Hi: hi}, nil
}

func gainAt(a, b *CDF, percentile float64) (float64, error) {
	av, err := a.Percentile(percentile)
	if err != nil {
		return 0, err
	}
	bv, err := b.Percentile(percentile)
	if err != nil {
		return 0, err
	}
	if av == 0 {
		return 0, nil
	}
	return (av - bv) / av, nil
}
