package main

import (
	"bytes"
	"io"
	"os"
	"slices"
	"testing"
)

var tiny = params{
	N: 2000, D: 4, KMin: 5, KMax: 20, ZipfS: 1.3, Jitter: 0.001,
	HotPool: 8, BatchPool: 32, BatchSize: 8, WriteMix: 0.05,
	HotDraws: 64, ColdFill: 32, ProbeWrites: 20, ProbeReads: 4,
}

func ids(cs []cand, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = cs[i].id
	}
	return out
}

func TestOracleRejectsCorruptedAnswers(t *testing.T) {
	sh := newShadow(genPoints(tiny, 7))
	q, k := []float64{0.5, 0.4, 0.3, 0.2}, 6
	good := ids(sh.topK(q, k, 0), k)
	if err := sh.check(q, k, 0, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	swapped := slices.Clone(good)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	outsider := slices.Clone(good)
	outsider[k-1] = ids(sh.topK(q, k+1, 0), k+1)[k]
	short := good[:k-1]
	for name, ans := range map[string][]int64{"swapped": swapped, "outsider": outsider, "short": short} {
		if sh.check(q, k, 0, ans) == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}

func TestOracleRejectsStaleAnswers(t *testing.T) {
	sh := newShadow(genPoints(tiny, 7))
	q, k := []float64{0.5, 0.4, 0.3, 0.2}, 6
	before := ids(sh.topK(q, k, 0), k)
	sh.insert(1<<40, []float64{1, 1, 1, 1}) // version 1: a new leader
	if err := sh.check(q, k, 0, before); err != nil {
		t.Fatalf("answer issued at version 0 rejected: %v", err)
	}
	if sh.check(q, k, 1, before) == nil {
		t.Fatal("answer that misses an acknowledged insert accepted")
	}
	after := ids(sh.topK(q, k, 1), k)
	if after[0] != 1<<40 {
		t.Fatalf("inserted leader not ranked first: %v", after)
	}
	sh.remove(1 << 40) // version 2
	if sh.check(q, k, 2, after) == nil {
		t.Fatal("answer that still holds a deleted record accepted")
	}
	if err := sh.check(q, k, 2, before); err != nil {
		t.Fatalf("answer at version 2 rejected: %v", err)
	}
}

func TestOracleTiesAreASet(t *testing.T) {
	pts := [][]float64{{0.9, 0.9}, {0.5, 0.5}, {0.5, 0.5}, {0.1, 0.1}}
	sh := newShadow(pts)
	q := []float64{1, 1}
	for _, ans := range [][]int64{{0, 1, 2}, {0, 2, 1}} {
		if err := sh.check(q, 3, 0, ans); err != nil {
			t.Errorf("tie order %v rejected: %v", ans, err)
		}
	}
	for _, ans := range [][]int64{{0, 1}, {0, 2}} {
		if err := sh.check(q, 2, 0, ans); err != nil {
			t.Errorf("tied k-th record %v rejected: %v", ans, err)
		}
	}
	if sh.check(q, 3, 0, []int64{1, 0, 2}) == nil {
		t.Error("misordered answer accepted")
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json is stale; regenerate it with: bash girperf/run.sh --write-spec BENCHMARK.json")
	}
}

// TestWorkloadsRunTiny runs every workload, untraced and traced, at a
// tiny size, and checks that the oracle passes and the printed metrics
// are exactly the ones BENCHMARK.json names.
func TestWorkloadsRunTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{w: w, p: tiny, seed: 3, seconds: 1, trace: trace, workDir: t.TempDir()}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
