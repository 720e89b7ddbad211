package main

import "math/bits"

// hist is a log-linear latency histogram: exact below 256 ns, then 256
// buckets per power of two (under 0.4% wide). It has a fixed size, so a
// timed section can record millions of latencies without allocating.
type hist struct {
	counts [256 * 40]uint64
	n      uint64
}

func bucket(ns int64) int {
	v := uint64(max(ns, 0))
	if v < 256 {
		return int(v)
	}
	shift := bits.Len64(v) - 9
	return min(256+shift*256+int(v>>shift)-256, len(hist{}.counts)-1)
}

// bounds returns a bucket's lower edge and width in ns.
func bounds(i int) (lo, width float64) {
	if i < 256 {
		return float64(i), 1
	}
	shift := (i - 256) / 256
	sub := uint64((i-256)%256 + 256)
	return float64(sub << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.counts[bucket(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS interpolates the q-quantile within its bucket, in
// microseconds.
func (h *hist) quantileUS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= target {
			lo, w := bounds(i)
			return (lo + w*(target-below)/float64(c)) / 1e3
		}
		below += float64(c)
	}
	return 0
}
