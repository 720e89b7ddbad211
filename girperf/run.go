package main

import (
	"slices"
	"sync"
	"time"

	"github.com/girlib/gir"
)

// recorder is one client's log of a timed section: latencies, counts and
// the answers kept for the oracle.
type recorder struct {
	every   int // keep every Nth read's answer; 0 keeps one query per batch call
	maxCaps int
	seen    int

	readLat, writeLat hist // per call: a batch call is one sample
	reads, writes     int
	probeReads        int
	failed            int
	caps              []capture
}

func newRecorder(w *workload, maxCaps int) *recorder {
	return &recorder{every: w.every, maxCaps: maxCaps}
}

func (r *recorder) keep(q []float64, k int, v int64, recs []gir.Record) {
	if len(r.caps) >= r.maxCaps {
		return
	}
	ids := make([]int64, len(recs))
	for i, x := range recs {
		ids[i] = x.ID
	}
	r.caps = append(r.caps, capture{q: slices.Clone(q), k: k, v: v, ids: ids})
}

// read logs one answered read issued at version v.
func (r *recorder) read(q []float64, k int, v int64, res gir.EngineResult) {
	r.reads++
	if res.Err != nil {
		r.failed++
		return
	}
	if r.every > 0 && r.seen%r.every == 0 {
		r.keep(q, k, v, res.Records)
	}
	r.seen++
}

// batch logs one BatchTopK call of len(qs) queries.
func (r *recorder) batch(qs []gir.Query, v int64, res []gir.EngineResult) {
	r.reads += len(qs)
	for _, x := range res {
		if x.Err != nil {
			r.failed++
		}
	}
	i := r.seen % len(qs)
	if res[i].Err == nil {
		r.keep(qs[i].Vector, qs[i].K, v, res[i].Records)
	}
	r.seen++
}

// driver runs ops against the rig's engine and keeps the oracle's shadow
// in step with acknowledged writes. Only one goroutine may write.
type driver struct {
	r  *rig
	sh *shadow
}

// do executes one op, logging it to rec and, when tr is set, recording
// its spans.
func (d driver) do(o *op, rec *recorder, tr *tracer) {
	v := d.sh.version
	var root int32 = -1
	var sync0 int64
	if tr != nil {
		name := spanEngineRead
		switch o.kind {
		case opBatch:
			name = spanEngineBatch
		case opInsert, opDelete:
			name = spanWrite
			sync0 = d.r.clock.at.Load()
		}
		root = tr.open(name, tr.nextOp(), -1)
	}
	t0 := time.Now()
	switch o.kind {
	case opRead:
		res := d.r.eng.TopK(o.q, o.k)
		rec.readLat.add(int64(time.Since(t0)))
		tr.close(root)
		rec.read(o.q, o.k, v, res)
		return
	case opBatch:
		res := d.r.eng.BatchTopK(o.batch)
		rec.readLat.add(int64(time.Since(t0)))
		tr.close(root)
		rec.batch(o.batch, v, res)
		return
	}
	ok := write(d.r.ds, o)
	rec.writeLat.add(int64(time.Since(t0)))
	if tr != nil {
		tr.close(root)
		tr.syncSplit(root, sync0, d.r.clock.at.Load())
	}
	rec.writes++
	if !ok {
		rec.failed++
		return
	}
	d.sh.apply(o)
}

// write applies an insert or delete op and reports whether the dataset
// acknowledged it.
func write(ds *gir.Dataset, o *op) bool {
	if o.kind == opInsert {
		return ds.Insert(o.id, o.p) == nil
	}
	found, err := ds.Delete(o.id, o.p)
	return found && err == nil
}

// section runs the workload's closed-loop clients for dur and returns the
// wall time from start until the last client stopped. A client with a
// tracer also stops when its span buffer is full.
func (d driver) section(dur time.Duration, srcs []source, recs []*recorder, trs []*tracer) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var o op
			var tr *tracer
			if trs != nil {
				tr = trs[c]
			}
			for time.Now().Before(deadline) && !tr.full() {
				srcs[c].next(&o)
				d.do(&o, recs[c], tr)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// probe ends every timed section with writes, so each workload has
// enough write samples for a p99 (ProbeWrites per run), then ProbeReads
// hot-pool reads whose answers the oracle checks at the final version:
// a write must never leave a stale region serving. Probe reads are not
// timed and do not count toward read_qps.
func (d driver) probe(writes int, rec *recorder, tr *tracer) {
	g := newWriteGen(d.r.p, d.r.seed, tagProbe, 0)
	var o op
	for range writes {
		g.next(&o)
		d.do(&o, rec, tr)
	}
	src := newZipfSourceTagged(d.r.p, d.r.seed, d.r.p.HotPool, tagProbeReads, 0)
	for range d.r.p.ProbeReads {
		src.next(&o)
		res := d.r.eng.TopK(o.q, o.k)
		rec.probeReads++
		if res.Err != nil {
			rec.failed++
			continue
		}
		rec.keep(o.q, o.k, d.sh.version, res.Records)
	}
}
