package main

import (
	"fmt"
	"math"
	"slices"

	"github.com/girlib/gir/internal/engine"
	"github.com/girlib/gir/internal/vec"
)

// shadow is the oracle's copy of the dataset: the bulk-loaded base
// records (id = index, alive at every version) plus every record a
// workload inserted, each alive for versions [ins, del). Version v is
// the state after the v-th acknowledged write, matching Dataset.Version
// for a dataset that starts at 0 and has one writer.
type shadow struct {
	base    [][]float64
	extra   []shadowRec
	byID    map[int64]int // live extra records
	version int64

	memo   map[string][]cand // base top-k per exact (vector, k)
	scores []float64
}

type shadowRec struct {
	id       int64
	p        []float64
	ins, del int64
}

type cand struct {
	id    int64
	score float64
}

// memoLimit bounds the base top-k memo; exact repeats of pool vectors
// fit, and unique jittered vectors beyond it are scanned unmemoized.
const memoLimit = 4096

func newShadow(base [][]float64) *shadow {
	return &shadow{base: base, byID: map[int64]int{}, memo: map[string][]cand{}}
}

func (s *shadow) insert(id int64, p []float64) {
	s.version++
	s.byID[id] = len(s.extra)
	s.extra = append(s.extra, shadowRec{id: id, p: p, ins: s.version, del: math.MaxInt64})
}

// remove deletes an inserted record; base records are never deleted.
func (s *shadow) remove(id int64) bool {
	i, ok := s.byID[id]
	if !ok {
		return false
	}
	s.version++
	s.extra[i].del = s.version
	delete(s.byID, id)
	return true
}

// apply records an acknowledged write op.
func (s *shadow) apply(o *op) {
	if o.kind == opInsert {
		s.insert(o.id, o.p)
	} else {
		s.remove(o.id)
	}
}

func scoreOf(q, p []float64) float64 { return vec.Dot(q, p) }

// better is the result order: score descending, id ascending.
func better(a, b cand) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	case a.id < b.id:
		return -1
	case a.id > b.id:
		return 1
	}
	return 0
}

// cut keeps the first k of a sorted list plus every later record tied
// with the k-th score, since tied records may legitimately trade places.
func cut(cs []cand, k int) []cand {
	if len(cs) <= k {
		return cs
	}
	n := k
	for n < len(cs) && cs[n].score == cs[k-1].score {
		n++
	}
	return cs[:n]
}

// baseTop is the brute-force top-k (plus ties) of the base records.
func (s *shadow) baseTop(q []float64, k int) []cand {
	key := engine.Key(q, k)
	if c, ok := s.memo[key]; ok {
		return c
	}
	if cap(s.scores) < len(s.base) {
		s.scores = make([]float64, len(s.base))
	}
	sc := s.scores[:len(s.base)]
	top := make([]cand, 0, k+1)
	for i, p := range s.base {
		x := scoreOf(q, p)
		sc[i] = x
		if len(top) == k && x <= top[k-1].score {
			continue
		}
		c := cand{int64(i), x}
		at, _ := slices.BinarySearchFunc(top, c, better)
		top = slices.Insert(top, at, c)
		if len(top) > k {
			top = top[:k]
		}
	}
	if len(top) == k {
		kth := top[k-1].score
		for i, x := range sc {
			if x == kth && !slices.ContainsFunc(top, func(c cand) bool { return c.id == int64(i) }) {
				top = append(top, cand{int64(i), x})
			}
		}
	}
	if len(s.memo) < memoLimit {
		s.memo[key] = top
	}
	return top
}

// topK is the exact answer at version v, ties at the k-th score included.
// Base records are never deleted, so the top k of base ∪ alive inserts
// lies within the base top k plus the alive inserts.
func (s *shadow) topK(q []float64, k int, v int64) []cand {
	cs := slices.Clone(s.baseTop(q, k))
	for _, r := range s.extra {
		if r.ins <= v && v < r.del {
			cs = append(cs, cand{r.id, scoreOf(q, r.p)})
		}
	}
	slices.SortFunc(cs, better)
	return cut(cs, k)
}

// check verifies an answer issued at version v: the ids, in order, must
// be a top-k at v. Records with exactly equal scores form a set.
func (s *shadow) check(q []float64, k int, v int64, ids []int64) error {
	want := s.topK(q, k, v)
	if len(ids) != k || len(want) < k {
		return fmt.Errorf("got %d records, want %d", len(ids), k)
	}
	scores := make(map[int64]float64, len(want))
	for _, c := range want {
		scores[c.id] = c.score
	}
	seen := make(map[int64]bool, k)
	for i, id := range ids {
		x, ok := scores[id]
		if !ok || seen[id] {
			return fmt.Errorf("rank %d: record %d is not in the top %d at version %d", i, id, k, v)
		}
		if x != want[i].score {
			return fmt.Errorf("rank %d: record %d scores %v, want %v at version %d", i, id, x, want[i].score, v)
		}
		seen[id] = true
	}
	return nil
}

// capture is one recorded answer, checked after the timed section.
type capture struct {
	q   []float64
	k   int
	v   int64
	ids []int64
}

// verify checks captures and returns how many failed, with the first
// few failures described.
func (s *shadow) verify(caps []capture) (failed int, examples []string) {
	for _, c := range caps {
		if err := s.check(c.q, c.k, c.v, c.ids); err != nil {
			failed++
			if len(examples) < 3 {
				examples = append(examples, fmt.Sprintf("q=%v k=%d: %v", c.q, c.k, err))
			}
		}
	}
	return failed, examples
}
