package main

import (
	"os"
	"time"

	"github.com/girlib/gir"
	"github.com/girlib/gir/internal/domain"
	"github.com/girlib/gir/internal/geom"
	girint "github.com/girlib/gir/internal/gir"
	"github.com/girlib/gir/internal/pager"
	"github.com/girlib/gir/internal/rtree"
	"github.com/girlib/gir/internal/score"
	"github.com/girlib/gir/internal/topk"
	"github.com/girlib/gir/internal/vec"
)

// zeroOptions holds the cache-fill method a zero EngineOptions selects.
var zeroOptions gir.EngineOptions

// replay drives one op stream through the layers by hand, in the
// engine's order, timing each public call as a span: Cache.Lookup, then
// on a miss Dataset.TopK, Dataset.ComputeGIR and Cache.Put; for a write
// Dataset.Insert/Delete, then Cache.ApplyBatch. After each miss an
// "op.split" op recomputes the region on a replica tree bulk-loaded from
// the same points, timing Phase 2 (gir.Compute with SkipReduce) apart
// from constraint reduction (geom.ReduceCone), which ComputeGIR runs
// back to back.
type replay struct {
	p      params
	seed   int64
	ds     *gir.Dataset
	walDir string
	clock  *syncClock
	cache  *gir.Cache // nil when the workload runs uncached
	tree   *rtree.Tree
	method girint.Method
	dom    domain.Domain
	sh     *shadow
	tr     *tracer
	rec    *recorder

	queries, brsPages                 int64
	fills, girPages, cands, cons, lps int64
	writes, preds, repaired, affected int64
	evicted                           int64
}

func newReplay(r *rig, workDir string) (*replay, error) {
	ds, dir, err := openDataset(r.points, r.w, workDir, r.clock)
	if err != nil {
		return nil, err
	}
	x := &replay{p: r.p, seed: r.seed, ds: ds, walDir: dir, clock: r.clock, sh: newShadow(r.points), rec: newRecorder(r.w, 1<<16)}
	if r.w.opts.CacheCapacity >= 0 {
		x.cache = gir.NewCache(r.eng.Cache().Capacity())
		pts := make([]vec.Vector, len(r.points))
		for i, p := range r.points {
			pts[i] = p
		}
		x.tree = rtree.BulkLoad(pager.NewMemStore(), r.p.D, pts, nil)
		x.dom = domain.UnitBox(r.p.D)
		for _, m := range []girint.Method{girint.SP, girint.CP, girint.FP, girint.Exhaustive} {
			if m.String() == zeroOptions.CacheMethod.String() {
				x.method = m
			}
		}
		if err := warm(r.p, r.w, r.seed, x); err != nil {
			x.close()
			return nil, err
		}
	}
	return x, nil
}

func (x *replay) close() {
	x.ds.Close()
	os.RemoveAll(x.walDir)
}

func (x *replay) hit(q []float64, k int) bool {
	res, ok := x.cache.Lookup(q, k)
	return ok && res.Complete
}

func (x *replay) fill(qs []gir.Query, m gir.Method) error {
	for _, q := range qs {
		res, err := x.ds.TopK(q.Vector, q.K)
		if err != nil {
			return err
		}
		g, err := x.ds.ComputeGIR(res, m)
		if err != nil {
			return err
		}
		x.cache.Put(g, res)
	}
	return nil
}

// serve answers one read the way the engine would; when tracing, a miss
// is followed by its split op.
func (x *replay) serve(q []float64, k int) ([]gir.Record, error) {
	recs, miss, err := x.serveOp(q, k)
	if miss && x.tr != nil {
		x.split(q, k)
	}
	return recs, err
}

func (x *replay) serveOp(q []float64, k int) (recs []gir.Record, fill bool, err error) {
	tr := x.tr
	op := tr.nextOp()
	root := tr.open(spanOpRead, op, -1)
	defer tr.close(root)
	if x.cache != nil {
		s := tr.open(spanLookup, op, root)
		cr, ok := x.cache.Lookup(q, k)
		tr.close(s)
		if ok && cr.Complete {
			return cr.Records, false, nil
		}
	}
	pages := x.ds.IOStats().PageReads
	s := tr.open(spanBRS, op, root)
	res, err := x.ds.TopK(q, k)
	tr.close(s)
	if err != nil {
		return nil, false, err
	}
	if tr != nil {
		x.queries++
		x.brsPages += x.ds.IOStats().PageReads - pages
	}
	if x.cache == nil {
		return res.Records, false, nil
	}
	s = tr.open(spanGIR, op, root)
	g, err := x.ds.ComputeGIR(res, zeroOptions.CacheMethod)
	tr.close(s)
	if err != nil {
		return res.Records, false, nil // the engine skips the put, as here
	}
	s = tr.open(spanPut, op, root)
	x.cache.Put(g, res)
	tr.close(s)
	if tr != nil {
		x.fills++
		x.girPages += g.Stats.PageReads
		x.cons += int64(g.Stats.Constraints)
		if g.Stats.Method == "FP" {
			x.cands += int64(g.Stats.StarFacets)
		} else {
			x.cands += int64(g.Stats.SkylineSize)
		}
	}
	return res.Records, true, nil
}

// split times Phase 2 and reduction apart on the replica tree.
func (x *replay) split(q []float64, k int) {
	tr := x.tr
	op := tr.nextOp()
	root := tr.open(spanOpSplit, op, -1)
	defer tr.close(root)
	s := tr.open(spanReplicaBRS, op, root)
	res := topk.BRS(x.tree, score.Linear{}, vec.Vector(q), k)
	tr.close(s)
	s = tr.open(spanPhase2, op, root)
	reg, _, err := girint.Compute(x.tree, res, girint.Options{Method: x.method, SkipReduce: true, Domain: x.dom})
	tr.close(s)
	if err != nil || len(reg.Constraints) <= 1 {
		return
	}
	normals := make([]vec.Vector, len(reg.Constraints))
	for i, c := range reg.Constraints {
		normals[i] = c.Normal
	}
	x.lps += lpCount(normals)
	s = tr.open(spanReduce, op, root)
	geom.ReduceCone(normals, 1e-12)
	tr.close(s)
}

// lpCount is how many LP feasibility tests geom.ReduceCone solves for
// these normals: one per nonzero normal left after it collapses
// same-direction duplicates. It mirrors the reduction's current
// one-test-per-constraint structure; a counter inside the library would
// follow an algorithm change, this one cannot.
func lpCount(normals []vec.Vector) int64 {
	var units []vec.Vector
	for _, a := range normals {
		nm := vec.Norm(a)
		if nm <= 1e-12 {
			continue
		}
		u := vec.Scale(1/nm, a)
		dup := false
		for _, w := range units {
			if vec.Equal(u, w, 1e-9) {
				dup = true
				break
			}
		}
		if !dup {
			units = append(units, u)
		}
	}
	if len(units) < 2 {
		return 0
	}
	return int64(len(units))
}

// write applies one write and reconciles the cache with it.
func (x *replay) write(o *op) {
	tr := x.tr
	op := tr.nextOp()
	root := tr.open(spanOpWrite, op, -1)
	before := x.clock.at.Load()
	s := tr.open(spanWrite, op, root)
	ok := write(x.ds, o)
	tr.close(s)
	tr.syncSplit(s, before, x.clock.at.Load())
	x.writes++
	x.rec.writes++
	if !ok {
		x.rec.failed++
		tr.close(root)
		return
	}
	if x.cache != nil {
		s = tr.open(spanApply, op, root)
		st := x.cache.ApplyBatch([]gir.CacheMutation{{Version: x.ds.Version(), Insert: o.kind == opInsert, ID: o.id, Point: o.p}})
		tr.close(s)
		x.preds += st.Predicates
		x.repaired += int64(st.Repaired)
		x.affected += int64(st.Affected)
		x.evicted += int64(st.Evicted)
	}
	tr.close(root)
	x.sh.apply(o)
	switch {
	case x.tree == nil:
	case o.kind == opInsert:
		x.tree.Insert(o.id, o.p)
	default:
		x.tree.Delete(o.id, o.p)
	}
}

// run replays src for dur or until the span buffer fills, then a share
// of the write probe, for which it keeps room in the buffer.
func (x *replay) run(dur time.Duration, src source) {
	probe := min(x.p.ProbeWrites, 200)
	deadline := time.Now().Add(dur)
	var o op
	for time.Now().Before(deadline) && !x.tr.short(8*(probe+1)) {
		src.next(&o)
		switch o.kind {
		case opRead:
			x.logRead(o.q, o.k, true)
		case opBatch:
			keep := x.rec.seen % len(o.batch)
			for i, q := range o.batch {
				if x.tr.short(8 * (probe + 1)) {
					break
				}
				x.logRead(q.Vector, q.K, i == keep)
			}
			x.rec.seen++
		default:
			x.write(&o)
		}
	}
	g := newWriteGen(x.p, x.seed, tagProbe, 0)
	for range probe {
		g.next(&o)
		x.write(&o)
	}
}

func (x *replay) logRead(q []float64, k int, keep bool) {
	recs, err := x.serve(q, k)
	x.rec.reads++
	if err != nil {
		x.rec.failed++
		return
	}
	if x.rec.every > 0 {
		keep = x.rec.seen%x.rec.every == 0
		x.rec.seen++
	}
	if keep {
		x.rec.keep(q, k, x.sh.version, recs)
	}
}
