package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// Span names. The engine section records one root span per Engine call
// (or Dataset write); the layer replay records one root span per op with
// a child per layer call.
const (
	spanEngineRead uint8 = iota
	spanEngineBatch
	spanWrite // Dataset.Insert/Delete, with the WAL append and fsync when the workload logs
	spanPresync
	spanSyncApply
	spanOpRead
	spanOpWrite
	spanOpSplit
	spanLookup
	spanBRS
	spanGIR
	spanPut
	spanApply
	spanReplicaBRS
	spanPhase2
	spanReduce
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanEngineRead:  "engine.topk",
	spanEngineBatch: "engine.batch",
	spanWrite:       "dataset.write",
	spanPresync:     "pager.presync",
	spanSyncApply:   "pager.sync_apply",
	spanOpRead:      "op.read",
	spanOpWrite:     "op.write",
	spanOpSplit:     "op.split",
	spanLookup:      "cache.lookup",
	spanBRS:         "topk.brs",
	spanGIR:         "gir.compute",
	spanPut:         "cache.put",
	spanApply:       "maintain.apply",
	spanReplicaBRS:  "topk.brs_replica",
	spanPhase2:      "gir.phase2",
	spanReduce:      "geom.reduce",
}

// span is one timed call. start and end are nanoseconds since the
// tracer's origin; parent indexes the same tracer's spans (-1 for a root).
type span struct {
	start, end int64
	op         int64
	parent     int32
	name       uint8
}

// tracer keeps one goroutine's spans in a buffer allocated up front, so
// tracing adds no allocations to the calls it times.
type tracer struct {
	origin time.Time
	spans  []span
	ops    int64
}

func newTracer(origin time.Time, capacity int) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// full reports that the buffer cannot take another op's spans.
func (t *tracer) full() bool { return t.short(8) }

// short reports that the buffer has room for fewer than n more spans.
func (t *tracer) short(n int) bool { return t != nil && len(t.spans)+n > cap(t.spans) }

func (t *tracer) nextOp() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

// open starts a span; on a nil tracer it records nothing.
func (t *tracer) open(name uint8, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{start: t.now(), op: op, parent: parent, name: name})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(i int32) {
	if t != nil {
		t.spans[i].end = t.now()
	}
}

// syncSplit divides a write span at the moment its fsync began, as the
// WAL's SyncHook reported it (wall-clock ns): before it the record is
// encoded and appended, after it the log is fsynced and the tree's
// copy-on-write pages are built and published.
func (t *tracer) syncSplit(write int32, before, hook int64) {
	if t == nil || hook == before {
		return // no fsync ran
	}
	w := t.spans[write]
	at := hook - t.origin.UnixNano()
	if at < w.start || at > w.end {
		return
	}
	t.spans = append(t.spans,
		span{start: w.start, end: at, op: w.op, parent: write, name: spanPresync},
		span{start: at, end: w.end, op: w.op, parent: write, name: spanSyncApply})
}

// layerTimes aggregates spans by name: every duration, and self time
// (duration minus the time covered by child spans).
type layerTimes struct {
	durs [numSpanNames][]float64 // microseconds
	self [numSpanNames]float64   // total microseconds
	// missOps and missCovered total the replay's cache-miss reads and the
	// part of them their layer spans cover.
	missOps, missCovered float64
	spans                int
}

func (lt *layerTimes) add(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.durs[s.name] = append(lt.durs[s.name], float64(d)/1e3)
		lt.self[s.name] += float64(d-child[i]) / 1e3
		if s.name == spanOpRead && child[i] > 0 && missRead(t.spans, i) {
			lt.missOps += float64(d) / 1e3
			lt.missCovered += float64(child[i]) / 1e3
		}
	}
	lt.spans += len(t.spans)
}

// missRead reports whether replay read i went past the cache lookup.
func missRead(spans []span, i int) bool {
	for j := i + 1; j < len(spans) && spans[j].op == spans[i].op; j++ {
		if spans[j].parent == int32(i) && spans[j].name == spanBRS {
			return true
		}
	}
	return false
}

// writeSpans saves every span as tab-separated text, one file per
// workload, overwritten by the next traced run.
func writeSpans(path string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "tracer\top\tspan\tparent\tname\tstart_ns\tend_ns")
	for ti, t := range trs {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", ti, s.op, i, s.parent, spanNames[s.name], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
