package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for no samples). xs is not modified.
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

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// interval is a closed span of wall time.
type interval struct{ from, to time.Time }

// coveredWithin returns how much of [from, to] the union of ivs covers.
func coveredWithin(ivs []interval, from, to time.Time) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if iv.from.Before(from) {
			iv.from = from
		}
		if iv.to.After(to) {
			iv.to = to
		}
		if iv.to.After(iv.from) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].from.Before(clipped[j].from) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		if i == 0 || iv.from.After(cur.to) {
			total += cur.to.Sub(cur.from)
			cur = iv
			continue
		}
		if iv.to.After(cur.to) {
			cur.to = iv.to
		}
	}
	total += cur.to.Sub(cur.from)
	return total
}
