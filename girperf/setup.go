package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/girlib/gir"
	"github.com/girlib/gir/internal/datagen"
)

// rig is one set-up workload: data, dataset with its write-ahead log,
// engine and warmed cache.
type rig struct {
	p      params
	w      *workload
	seed   int64 // this set-up's instance seed
	points [][]float64
	ds     *gir.Dataset
	eng    *gir.Engine
	walDir string
	clock  *syncClock
}

// syncClock records when the log last reached its fsync, through the
// public WALOptions.SyncHook; nil in untraced runs.
type syncClock struct{ at atomic.Int64 }

func (c *syncClock) hook() { c.at.Store(time.Now().UnixNano()) }

func genPoints(p params, seed int64) [][]float64 {
	vs := datagen.Independent(p.N, p.D, seed)
	pts := make([][]float64, len(vs))
	for i, v := range vs {
		pts[i] = v
	}
	return pts
}

// openDataset bulk-loads the points. A durable workload also gets a
// fresh write-ahead log under workDir that fsyncs every acknowledged
// write; dir is then its directory, else empty.
func openDataset(pts [][]float64, w *workload, workDir string, clock *syncClock) (ds *gir.Dataset, dir string, err error) {
	if ds, err = gir.NewDataset(pts); err != nil || !w.durable {
		return ds, "", err
	}
	if dir, err = os.MkdirTemp(workDir, "wal-"); err != nil {
		return nil, "", err
	}
	opts := gir.WALOptions{SyncEvery: 1}
	if clock != nil {
		opts.SyncHook = clock.hook
	}
	if err := ds.EnableWAL(dir, opts); err != nil {
		os.RemoveAll(dir)
		return nil, "", fmt.Errorf("enable WAL: %w", err)
	}
	return ds, dir, nil
}

// newRig runs one full set-up: generate, bulk-load, log, engine, warm.
func newRig(p params, w *workload, seed int64, workDir string, clock *syncClock) (*rig, error) {
	pts := genPoints(p, seed)
	ds, dir, err := openDataset(pts, w, workDir, clock)
	if err != nil {
		return nil, err
	}
	r := &rig{p: p, w: w, seed: seed, points: pts, ds: ds, walDir: dir, clock: clock}
	r.eng = gir.NewEngine(ds, w.opts)
	if err := warm(p, w, seed, engineServer{r.eng}); err != nil {
		r.close()
		return nil, fmt.Errorf("warm cache: %w", err)
	}
	if w.warm == warmCalls {
		// The first calls of a fresh engine fill its traversal pools and
		// run several times slower; with many short instances per run they
		// would be about 1% of the calls and decide read_p99_us.
		src := newBatchSource(p, newZipfSourceTagged(p, seed, p.BatchPool, tagWarm, 0))
		var o op
		for range 4 {
			src.next(&o)
			for _, res := range r.eng.BatchTopK(o.batch) {
				if res.Err != nil {
					r.close()
					return nil, fmt.Errorf("warm-up call: %w", res.Err)
				}
			}
		}
	}
	return r, nil
}

func (r *rig) close() {
	r.eng.Close()
	r.ds.Close()
	os.RemoveAll(r.walDir)
}

// server is what warming needs from a serving stack: the engine, or the
// traced run's hand-managed dataset and cache.
type server interface {
	// hit reports whether the cache answers (q, k) completely.
	hit(q []float64, k int) bool
	// fill caches each query's region, computed with m.
	fill(qs []gir.Query, m gir.Method) error
}

type engineServer struct{ eng *gir.Engine }

func (s engineServer) hit(q []float64, k int) bool {
	res, ok := s.eng.Cache().Lookup(q, k)
	return ok && res.Complete
}

func (s engineServer) fill(qs []gir.Query, m gir.Method) error {
	for _, res := range s.eng.BatchGIR(qs, m) {
		if res.Err != nil {
			return res.Err
		}
	}
	return nil
}

// warm fills the cache before timing. Regions are filled with FP: every
// method yields the same region (the library's differentials pin this),
// and FP builds it far faster than the default, which keeps set-up short.
// The hot pool is filled at KMax, so one entry covers every k of its
// vector, then every cycled draw the cache does not yet answer is filled.
func warm(p params, w *workload, seed int64, s server) error {
	switch w.warm {
	case warmPool:
		pool := zipfPool(p, seed, p.HotPool)
		qs := make([]gir.Query, len(pool))
		for i, v := range pool {
			qs[i] = gir.Query{Vector: v, K: p.KMax}
		}
		if err := s.fill(qs, gir.FP); err != nil {
			return err
		}
		qs = qs[:0]
		for c := range clientCount(w) {
			src := newCycleSource(p, seed, c)
			for i, q := range src.qs {
				if !s.hit(q, src.ks[i]) {
					qs = append(qs, gir.Query{Vector: q, K: src.ks[i]})
				}
			}
		}
		return s.fill(qs, gir.FP)
	case warmFill:
		r := streamRand(seed, tagFill, 0)
		qs := make([]gir.Query, p.ColdFill)
		for i := range qs {
			qs[i].Vector = make([]float64, p.D)
			uniformVector(r, qs[i].Vector)
			qs[i].K = drawK(p, r)
		}
		return s.fill(qs, gir.FP)
	}
	return nil
}
