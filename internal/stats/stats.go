package stats

import (
	"errors"
	"math"
	"sort"

	"gameauthority/internal/game"
)

// Common errors.
var (
	ErrNoEquilibria = errors.New("metrics: game has no pure Nash equilibrium")
	ErrDegenerate   = errors.New("metrics: degenerate input")
)

// OptimalSocialCost returns the minimum social cost over all pure profiles
// (the centralistic optimum) and a witnessing profile.
func OptimalSocialCost(g game.Game, limit int) (float64, game.Profile, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	if _, err := game.ProfileSpaceSize(g, limit); err != nil {
		return 0, nil, err
	}
	best := math.Inf(1)
	var bestP game.Profile
	game.ForEachProfile(g, func(p game.Profile) bool {
		if c := game.SocialCost(g, p, nil); c < best {
			best = c
			bestP = p.Clone()
		}
		return true
	})
	return best, bestP, nil
}

// PriceOfAnarchy returns worst-PNE social cost divided by the optimum.
// Requires at least one PNE and a positive optimum.
func PriceOfAnarchy(g game.Game, limit int) (float64, error) {
	ratio, _, err := anarchyRatios(g, limit)
	return ratio, err
}

// PriceOfStability returns best-PNE social cost divided by the optimum.
func PriceOfStability(g game.Game, limit int) (float64, error) {
	_, ratio, err := anarchyRatios(g, limit)
	return ratio, err
}

func anarchyRatios(g game.Game, limit int) (poa, pos float64, err error) {
	opt, _, err := OptimalSocialCost(g, limit)
	if err != nil {
		return 0, 0, err
	}
	pnes, err := game.PureNashEquilibria(g, limit)
	if err != nil {
		return 0, 0, err
	}
	if len(pnes) == 0 {
		return 0, 0, ErrNoEquilibria
	}
	worst, best := math.Inf(-1), math.Inf(1)
	for _, p := range pnes {
		c := game.SocialCost(g, p, nil)
		if c > worst {
			worst = c
		}
		if c < best {
			best = c
		}
	}
	if opt <= 0 {
		return 0, 0, ErrDegenerate
	}
	return worst / opt, best / opt, nil
}

// PriceOfMalice follows [21]: the ratio between the social cost of the
// selfish system with b malicious agents and the social cost with none
// (both measured over the honest agents). costWithout must be positive.
func PriceOfMalice(costWith, costWithout float64) (float64, error) {
	if costWithout <= 0 {
		return 0, ErrDegenerate
	}
	return costWith / costWithout, nil
}

// MultiRoundAnarchyCost returns R(k) = SC(k)/OPT(k) for the repeated
// resource allocation game: expectedMax is the measured E[M(k)] (worst-case
// over sequences approximated by the empirical mean over seeds) and opt is
// OPT(k) = ⌈nk/b⌉.
func MultiRoundAnarchyCost(expectedMax float64, opt int64) (float64, error) {
	if opt <= 0 {
		return 0, ErrDegenerate
	}
	return expectedMax / float64(opt), nil
}

// Theorem5Bound returns the paper's bound 1 + 2b/k on R(k).
func Theorem5Bound(b, k int) float64 {
	if k <= 0 {
		return math.Inf(1)
	}
	return 1 + 2*float64(b)/float64(k)
}

// --- Statistics helpers ------------------------------------------------------

// Summary holds basic sample statistics.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Summarize computes summary statistics of xs (percentiles are
// nearest-rank with linear interpolation); zero value for empty input.
// It sorts a copy, leaving xs as it was.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(s.N)
	var varSum float64
	for _, x := range sorted {
		d := x - s.Mean
		varSum += d * d
	}
	if s.N > 1 {
		s.Std = math.Sqrt(varSum / float64(s.N-1))
	}
	s.Min = sorted[0]
	s.Max = sorted[s.N-1]
	s.P50 = quantile(sorted, 0.50)
	s.P95 = quantile(sorted, 0.95)
	s.P99 = quantile(sorted, 0.99)
	return s
}

// quantile returns the q-quantile of a sorted sample (nearest-rank with
// linear interpolation).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
