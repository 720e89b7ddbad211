package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// run measures one workload and returns the metrics of the requested
// kind.
func run(cfg config, out io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	if err := printEnv(cfg, out); err != nil {
		return nil, err
	}
	if cfg.trace {
		return traced(cfg, out)
	}
	return measured(cfg, out)
}

func printEnv(cfg config, out io.Writer) error {
	stamp, err := json.Marshal(newEnvStamp(cfg, clientCount(cfg.w)))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "env %s\n", stamp)
	return nil
}

func sources(cfg config, r *rig) []source {
	srcs := make([]source, clientCount(cfg.w))
	for c := range srcs {
		srcs[c] = cfg.w.source(cfg.p, r.seed, c)
	}
	return srcs
}

// tally sums recorders and checks their kept answers.
type tally struct {
	readLat, writeLat            hist
	seconds                      float64 // total length of the timed sections
	reads, writes, probes, fails int
	examples                     []string
}

// add pools the recorders of one section that ran for elapsed.
func (t *tally) add(sh *shadow, elapsed time.Duration, recs ...*recorder) {
	t.seconds += elapsed.Seconds()
	for _, r := range recs {
		t.readLat.merge(&r.readLat)
		t.writeLat.merge(&r.writeLat)
		t.reads += r.reads
		t.writes += r.writes
		t.probes += r.probeReads
		t.fails += r.failed
		f, ex := sh.verify(r.caps)
		t.fails += f
		t.examples = append(t.examples, ex...)
	}
}

func (t *tally) attempted() int { return t.reads + t.writes + t.probes }

// qps is the queries answered per second of the timed sections (a batch
// call counts its queries; probe reads are not timed).
func (t *tally) qps() float64 { return float64(t.reads) / t.seconds }

// measured is the untraced run: the end-to-end metrics. The run sets up
// the workload's independent instances (see instanceSeed) and
// measures each for an equal share of the time. Latencies pool over the
// instances, so one instance's luck weighs only its share: its data and
// pools, and the cache's shard layout, which the cache hashes with a
// per-instance random seed.
func measured(cfg config, out io.Writer) (*result, error) {
	n := cfg.w.instances
	dur := time.Duration(cfg.seconds) * time.Second / time.Duration(n)
	var t tally
	var setupS, heapMB []float64
	for part := range n {
		t0 := time.Now()
		r, err := newRig(cfg.p, cfg.w, instanceSeed(cfg.seed, part), cfg.workDir, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		d := driver{r: r, sh: newShadow(r.points)}
		srcs := sources(cfg, r)
		recs := make([]*recorder, len(srcs))
		for c := range recs {
			recs[c] = newRecorder(cfg.w, 1<<16)
		}
		elapsed := d.section(dur, srcs, recs, nil)
		d.probe(probeWrites(cfg), recs[0], nil)
		t.add(d.sh, elapsed, recs...)
		heapMB = append(heapMB, heapInuseMB(r))
		r.close()
	}
	if t.readLat.n == 0 || t.writeLat.n == 0 {
		return nil, fmt.Errorf("timed sections completed %d read calls and %d writes; both must be at least 1", t.readLat.n, t.writeLat.n)
	}
	ms := map[string]metricValue{
		"read_qps":      {t.qps(), "1/s"},
		"read_p50_us":   {t.readLat.quantileUS(0.50), "us"},
		"read_p99_us":   {t.readLat.quantileUS(0.99), "us"},
		"write_p50_us":  {t.writeLat.quantileUS(0.50), "us"},
		"write_p99_us":  {t.writeLat.quantileUS(0.99), "us"},
		"heap_inuse_mb": {median(heapMB), "MB"},
		"setup_s":       {median(setupS), "s"},
	}
	fmt.Fprintf(out, "samples reads=%d read_calls=%d writes=%d setups=%d\n", t.reads, t.readLat.n, t.writeLat.n, len(setupS))
	for _, e := range t.examples {
		fmt.Fprintf(out, "oracle mismatch: %s\n", e)
	}
	report(out, ms)
	return &result{Attempted: t.attempted(), Failed: t.fails, Correct: t.fails == 0, Metrics: ms}, nil
}

// probeWrites is one instance's share of the run's probe writes.
func probeWrites(cfg config) int { return max(1, cfg.p.ProbeWrites/cfg.w.instances) }

// heapInuseMB is HeapInuse once the engine has reconciled the probe's
// writes and two collections have run (the second empties sync.Pool
// victim caches). The caller has dropped the oracle's buffers, so it is
// the library's footprint plus the fixed base data.
func heapInuseMB(r *rig) float64 {
	r.eng.Quiesce()
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// traced is the per-layer run. Half the time measures the engine
// untraced, half with a span around every call; the difference is the
// tracing overhead. Then the layer replay runs for the full time.
func traced(cfg config, out io.Writer) (*result, error) {
	r, err := newRig(cfg.p, cfg.w, instanceSeed(cfg.seed, 0), cfg.workDir, &syncClock{})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	d := driver{r: r, sh: newShadow(r.points)}
	srcs := sources(cfg, r)
	half := time.Duration(cfg.seconds) * time.Second / 2
	plain := make([]*recorder, len(srcs))
	for c := range plain {
		plain[c] = newRecorder(cfg.w, 1<<16)
	}
	plainEl := d.section(half, srcs, plain, nil)

	const spanCap = 400_000
	origin := time.Now()
	trs := make([]*tracer, len(srcs))
	recs := make([]*recorder, len(srcs))
	for c := range srcs {
		trs[c] = newTracer(origin, spanCap)
		recs[c] = newRecorder(cfg.w, 0)
	}
	es0, io0, wal0 := r.eng.Stats(), r.ds.IOStats(), r.ds.WALStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tracedEl := d.section(half, srcs, recs, trs)
	runtime.ReadMemStats(&m1)
	es1 := r.eng.Stats()
	cacheEntries := 0
	if c := r.eng.Cache(); c != nil {
		cacheEntries = c.Len()
	}
	d.probe(probeWrites(cfg), recs[0], trs[0])
	io1, wal1 := r.ds.IOStats(), r.ds.WALStats()

	var t tally
	t.add(d.sh, plainEl, plain...)
	plainP50, plainQPS := t.readLat.quantileUS(0.5), t.qps()
	var tt tally
	tt.add(d.sh, tracedEl, recs...)
	tracedP50, tracedQPS := tt.readLat.quantileUS(0.5), tt.qps()

	x, err := newReplay(r, cfg.workDir)
	if err != nil {
		return nil, fmt.Errorf("replay set-up: %w", err)
	}
	defer x.close()
	x.tr = newTracer(origin, 600_000)
	x.run(time.Duration(cfg.seconds)*time.Second, cfg.w.source(cfg.p, r.seed, 0))
	var xt tally
	xt.add(x.sh, 0, x.rec)

	all := append(slices.Clone(trs), x.tr)
	var lt layerTimes
	for _, tr := range all {
		lt.add(tr)
	}
	if err := writeSpans(filepath.Join(cfg.workDir, "spans-"+cfg.w.name+".tsv"), all); err != nil {
		return nil, err
	}

	queries := float64(tt.reads)
	writes := float64(tt.writes)
	per := func(n int64, base float64) float64 {
		if base == 0 {
			return 0
		}
		return float64(n) / base
	}
	us := func(name uint8, q float64) float64 { return quantile(lt.durs[name], q) }
	ms := map[string]metricValue{
		"engine.call_us_p50":            {tracedP50, "us"},
		"engine.hit_share":              {per(es1.CacheHits-es0.CacheHits, queries), "ratio"},
		"engine.partial_share":          {per(es1.PartialHits-es0.PartialHits, queries), "ratio"},
		"engine.fills_per_read":         {per(es1.Computed-es0.Computed, queries), "count"},
		"engine.dedup_share":            {per(es1.Deduped-es0.Deduped, queries), "ratio"},
		"engine.fused_query_share":      {per(es1.FusedQueries-es0.FusedQueries, queries), "ratio"},
		"engine.shared_reads_per_query": {per(es1.SharedPageReads-es0.SharedPageReads, queries), "count"},
		"engine.fenced_per_read":        {per(es1.Fenced-es0.Fenced, queries), "count"},
		"engine.allocs_per_read":        {per(int64(m1.Mallocs-m0.Mallocs), queries), "count"},
		"engine.bytes_per_read":         {per(int64(m1.TotalAlloc-m0.TotalAlloc), queries), "B"},
		"cache.lookup_us_p50":           {us(spanLookup, 0.5), "us"},
		"cache.lookup_us_p99":           {us(spanLookup, 0.99), "us"},
		"cache.put_us_p50":              {us(spanPut, 0.5), "us"},
		"cache.entries":                 {float64(cacheEntries), "count"},
		"topk.brs_us_p50":               {us(spanBRS, 0.5), "us"},
		"topk.brs_us_p99":               {us(spanBRS, 0.99), "us"},
		"topk.page_reads_per_query":     {per(x.brsPages, float64(x.queries)), "count"},
		"gir.compute_us_p50":            {us(spanGIR, 0.5), "us"},
		"gir.phase2_us_p50":             {us(spanPhase2, 0.5), "us"},
		"gir.phase2_us_p99":             {us(spanPhase2, 0.99), "us"},
		"gir.page_reads_per_fill":       {per(x.girPages, float64(x.fills)), "count"},
		"gir.candidates_per_fill":       {per(x.cands, float64(x.fills)), "count"},
		"gir.constraints_per_fill":      {per(x.cons, float64(x.fills)), "count"},
		"geom.reduce_us_p50":            {us(spanReduce, 0.5), "us"},
		"geom.lps_per_fill":             {per(x.lps, float64(x.fills)), "count"},
		"maintain.apply_us_p50":         {us(spanApply, 0.5), "us"},
		"maintain.predicates_per_write": {per(x.preds, float64(x.writes)), "count"},
		"maintain.repaired_share":       {per(x.repaired, float64(x.affected)), "ratio"},
		"maintain.evicted_per_write":    {per(x.evicted, float64(x.writes)), "count"},
		"pager.presync_us_p50":          {us(spanPresync, 0.5), "us"},
		"pager.sync_apply_us_p50":       {us(spanSyncApply, 0.5), "us"},
		"pager.wal_bytes_per_write":     {per(wal1.Bytes-wal0.Bytes, writes), "B"},
		"rtree.page_writes_per_write":   {per(io1.PageWrites-io0.PageWrites, writes), "count"},
		"replay.miss_span_share":        {ratio(lt.missCovered, lt.missOps), "ratio"},
		"replay.op_self_share":          {opSelfShare(&lt), "ratio"},
		"trace.overhead_p50_us":         {tracedP50 - plainP50, "us"},
		"trace.overhead_qps_share":      {ratio(plainQPS-tracedQPS, plainQPS), "ratio"},
		"trace.spans":                   {float64(lt.spans), "count"},
	}
	fmt.Fprintf(out, "traced engine: %.0f reads, %d writes; replay: %d reads, %d fills, %d writes\n",
		queries, tt.writes, x.rec.reads, x.fills, x.writes)
	fmt.Fprintf(out, "%-18s %8s %12s %12s\n", "span", "count", "self_ms", "p50_us")
	for n := range numSpanNames {
		if len(lt.durs[n]) > 0 {
			fmt.Fprintf(out, "%-18s %8d %12.3f %12.3f\n", spanNames[n], len(lt.durs[n]), lt.self[n]/1e3, quantile(lt.durs[n], 0.5))
		}
	}
	fails := t.fails + tt.fails + xt.fails
	for _, e := range append(append(t.examples, tt.examples...), xt.examples...) {
		fmt.Fprintf(out, "oracle mismatch: %s\n", e)
	}
	report(out, ms)
	return &result{
		Correct:   fails == 0,
		Attempted: t.attempted() + tt.attempted() + xt.attempted(),
		Failed:    fails,
		Metrics:   ms,
	}, nil
}

// opSelfShare is the share of replay op time no layer span covers.
func opSelfShare(lt *layerTimes) float64 {
	var self, total float64
	for _, n := range []uint8{spanOpRead, spanOpWrite, spanOpSplit} {
		self += lt.self[n]
		for _, d := range lt.durs[n] {
			total += d
		}
	}
	return ratio(self, total)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(len(s), q)]
}

func rank(n int, q float64) int {
	i := int(float64(n)*q+0.999999999) - 1
	return min(max(i, 0), n-1)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
