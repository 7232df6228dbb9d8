package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// window is one slice of a timed loop; read metrics are computed per
// window and reported as the median over windows, so a short stall of the
// machine moves one window, not the run's figure.
type window struct{ from, to time.Time }

// secondWindows cuts [from, to) into whole one-second windows.
func secondWindows(from, to time.Time) []window {
	var ws []window
	for t := from; !t.Add(time.Second).After(to); t = t.Add(time.Second) {
		ws = append(ws, window{t, t.Add(time.Second)})
	}
	return ws
}

// readMetrics reports, per query kind, the median over windows of each
// window's p50 and p90, and the median per-window throughput. A window
// whose tail is too thin for a percentile is left out of that percentile;
// a kind with no window left fails.
func readMetrics(l *opLog, ws []window) (map[string]float64, error) {
	if len(ws) == 0 {
		return nil, fmt.Errorf("no measurement window")
	}
	out := make(map[string]float64)
	qps := make([]float64, len(ws))
	for k := opKind(0); k < numOps; k++ {
		per := make([][]float64, len(ws))
		for i, at := range l.end[k] {
			for w := range ws {
				if at >= ws[w].from.UnixNano() && at < ws[w].to.UnixNano() {
					per[w] = append(per[w], float64(l.lat[k][i])/float64(time.Microsecond))
					break
				}
			}
		}
		for _, p := range []float64{0.5, 0.9} {
			var vals []float64
			for w := range ws {
				if v, err := percentile(per[w], p); err == nil {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				return nil, fmt.Errorf("%s: no window holds enough samples for p%g", opNames[k], p*100)
			}
			out[fmt.Sprintf("%s_p%d_us", opNames[k], int(p*100))] = median(vals)
		}
		for w := range ws {
			qps[w] += float64(len(per[w])) / ws[w].to.Sub(ws[w].from).Seconds()
		}
	}
	out["qps"] = median(qps)
	return out, nil
}

// minBeyond is the fewest samples a reported percentile must have above
// it: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples,
// refusing one with fewer than minBeyond samples beyond it. samples is
// sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(samples)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	sort.Float64s(samples)
	return samples[idx], nil
}

// trimmedMean is the mean of the middle half of xs, or the median when
// there are fewer than four values. Write latencies mix populations (a
// patch cycle holds cheap undos, light repairs and a rebuild), and a median
// that falls on the edge between two of them jumps from run to run; the
// mean of the middle half moves smoothly.
func trimmedMean(xs []float64) float64 {
	if len(xs) < 4 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	sum := 0.0
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

// median of a small sample set (setup repetitions, builds), where the
// percentile rule cannot apply; the mean of the middle two for even counts.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
