package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"

	"quickr"
	"quickr/internal/lplan"
	"quickr/internal/table"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and how many
// samples lie strictly above its rank. ok is false when fewer than
// minBeyond samples do: such a percentile is not reported as measured.
func percentile(xs []float64, q float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= minBeyond
}

// median returns the middle value (mean of the middle two), 0 if empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// accuracyTally pools, over (sampled query, run) pairs, how many
// estimates' CI95 cover the exact value and how many exact groups the
// approximate answer misses.
type accuracyTally struct {
	Covered, Estimates int
	Missed, Groups     int
}

// Coverage is the share of estimates whose CI95 covers the exact value.
func (a accuracyTally) Coverage() float64 {
	if a.Estimates == 0 {
		return 0
	}
	return float64(a.Covered) / float64(a.Estimates)
}

// Recall is the share of exact groups present in the approximate answer
// (1 − missed groups).
func (a accuracyTally) Recall() float64 {
	if a.Groups == 0 {
		return 0
	}
	return 1 - float64(a.Missed)/float64(a.Groups)
}

// MissedFrac is the share of exact groups absent from the approximate
// answer.
func (a accuracyTally) MissedFrac() float64 {
	if a.Groups == 0 {
		return 0
	}
	return float64(a.Missed) / float64(a.Groups)
}

// htAgg reports whether an aggregate kind has a Horvitz–Thompson
// estimate with a standard error: SUM, COUNT and AVG, including the
// conditional SUMIF/COUNTIF forms.
func htAgg(k lplan.AggKind) bool {
	switch k {
	case lplan.AggCount, lplan.AggSum, lplan.AggAvg, lplan.AggSumIf, lplan.AggCountIf:
		return true
	}
	return false
}

// add compares one approximate answer's full (pre-LIMIT) groups with
// the exact answer of the same query. kinds are the top aggregate's
// aggregate kinds, in Estimates.Values order.
func (a *accuracyTally) add(exact, approx []quickr.GroupEstimate, kinds []lplan.AggKind) {
	byKey := make(map[string]quickr.GroupEstimate, len(approx))
	for _, g := range approx {
		byKey[anyKey(g.Key)] = g
	}
	for _, g := range exact {
		a.Groups++
		ag, ok := byKey[anyKey(g.Key)]
		if !ok {
			a.Missed++
			continue
		}
		for i, k := range kinds {
			if !htAgg(k) || i >= len(g.Values) || i >= len(ag.Values) || i >= len(ag.CI95) {
				continue
			}
			truth, ok1 := toFloat(g.Values[i])
			est, ok2 := toFloat(ag.Values[i])
			if !ok1 || !ok2 {
				continue
			}
			_, rounded := ag.Values[i].(int64)
			a.Estimates++
			if covers(truth, est, ag.CI95[i], rounded) {
				a.Covered++
			}
		}
	}
}

// covers reports whether est ± half contains truth. Estimates of
// integer columns are rounded on output, so they get half a unit of
// slack; otherwise a zero-width interval must hit the truth up to float
// rounding.
func covers(truth, est, half float64, rounded bool) bool {
	slack := 1e-9 * math.Abs(truth)
	if rounded {
		slack += 0.5
	}
	return math.Abs(est-truth) <= half+slack
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func anyKey(vals []any) string {
	var b strings.Builder
	for _, v := range vals {
		fmt.Fprintf(&b, "%T:%v\x00", v, v)
	}
	return b.String()
}

// spearman is the rank correlation of xs and ys (average ranks for
// ties); 0 when either side has no spread.
func spearman(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	rx, ry := ranks(xs), ranks(ys)
	mx, my := mean(rx), mean(ry)
	var sxy, sxx, syy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// canonicalHash fingerprints an answer order-insensitively with floats
// rounded, the form the reference-implementation cross-check compares
// (the executor and the reference evaluator sum floats in different
// orders, so only rounded values can match).
func canonicalHash(rows []table.Row) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		var b strings.Builder
		for j, v := range r {
			if j > 0 {
				b.WriteByte('|')
			}
			if v.Kind() == table.KindFloat {
				fmt.Fprintf(&b, "%.6g", roundSig(v.Float()))
			} else {
				b.WriteString(v.String())
			}
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func roundSig(f float64) float64 {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return f
	}
	scale := math.Pow(10, 8-math.Ceil(math.Log10(math.Abs(f))))
	return math.Round(f*scale) / scale
}

// exactHash fingerprints an answer bit for bit, in row order (FNV-1a
// over each value's kind and payload).
func exactHash(rows []table.Row) uint64 {
	h := fnv.New64a()
	var b [9]byte
	for _, r := range rows {
		for _, v := range r {
			b[0] = byte(v.Kind())
			var payload uint64
			switch v.Kind() {
			case table.KindInt:
				payload = uint64(v.Int())
			case table.KindFloat:
				payload = math.Float64bits(v.Float())
			case table.KindBool:
				if v.Bool() {
					payload = 1
				}
			case table.KindString:
				payload = uint64(len(v.Str()))
			}
			binary.LittleEndian.PutUint64(b[1:], payload)
			h.Write(b[:])
			if v.Kind() == table.KindString {
				h.Write([]byte(v.Str()))
			}
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
