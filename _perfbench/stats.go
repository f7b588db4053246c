package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailGrid is the set of percentiles a tail may be reported at. A
// coarse grid (rather than 1 − 10/n) keeps the reported percentile fixed
// across runs whose sample counts differ a little — p90 from 100 to 999
// samples — so a tail is never compared against a different percentile
// of another run.
var tailGrid = []float64{99.9, 99, 90, 75}

// tail is the highest grid percentile with at least ten samples beyond
// it. With fewer than 40 samples no grid percentile qualifies and the
// maximum is reported (label "max"). The label and sample count are
// part of the report.
type tail struct {
	Value float64 `json:"value"`
	Label string  `json:"percentile"`
	N     int     `json:"samples"`
}

func tailOf(xs []float64) tail {
	n := len(xs)
	for _, p := range tailGrid {
		if float64(n)*(100-p)/100 >= 10 {
			return tail{Value: quantile(xs, p/100), Label: fmt.Sprintf("p%g", p), N: n}
		}
	}
	mx := math.NaN()
	for i, x := range xs {
		if i == 0 || x > mx {
			mx = x
		}
	}
	return tail{Value: mx, Label: "max", N: n}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
