package main

import (
	"math"
	"math/rand"
	"runtime"

	"github.com/girlib/gir"
)

// params are the workload sizes. defaultParams is what the benchmark
// measures; the tests shrink them.
type params struct {
	N           int     // records, datagen.Independent
	D           int     // dimensions
	KMin, KMax  int     // k is drawn per query from [KMin, KMax]
	ZipfS       float64 // popularity skew of hot, batch and churn reads
	Jitter      float64 // gaussian nudge applied to half the Zipf draws
	HotPool     int     // distinct weight vectors behind hot and churn
	BatchPool   int     // distinct weight vectors behind batch
	BatchSize   int     // queries per BatchTopK call
	WriteMix    float64 // share of churn ops that are writes
	HotDraws    int     // Zipf draws in each hot/churn client's cycled read list
	ColdFill    int     // cold: regions put in the cache during set-up (its capacity)
	ProbeWrites int     // probe writes per run, split over its instances
	ProbeReads  int     // oracle-checked reads after each probe
}

var defaultParams = params{
	N: 100_000, D: 4, KMin: 5, KMax: 20, ZipfS: 1.3, Jitter: 0.001,
	HotPool: 64, BatchPool: 1024, BatchSize: 64, WriteMix: 0.05,
	HotDraws: 1024, ColdFill: 1024, ProbeWrites: 2000, ProbeReads: 16,
}

type warmKind uint8

const (
	warmPool  warmKind = iota + 1 // the hot pool at KMax, then every cycled draw
	warmFill                      // ColdFill fresh regions
	warmCalls                     // a few untimed BatchTopK calls
)

// workload is one traffic mix. Every loop is closed: a client issues its
// next op when the previous one returns.
type workload struct {
	name, why string
	clients   int               // client goroutines, capped at nproc
	instances int               // independent set-ups an untraced run measures
	durable   bool              // log every write to an fsynced WAL (see openDataset)
	opts      gir.EngineOptions // zero value unless the workload needs otherwise
	warm      warmKind
	every     int // oracle-check every Nth read (1 = all, 0 = one query per batch call)
	source    func(p params, seed int64, client int) source
}

var workloads = []*workload{
	{
		name:    "hot",
		why:     "Zipf reads over 64 vectors fit the cache: the hit path (fence, region lookup, rescoring) does the work",
		clients: 2, instances: 16, warm: warmPool, every: 256,
		source: func(p params, seed int64, c int) source { return newCycleSource(p, seed, c) },
	},
	{
		name:    "cold",
		why:     "fresh vectors miss a full cache: every read pays a miss scan, BRS, GIR Phase 2, reduction and an evicting put",
		clients: 2, instances: 6, warm: warmFill, every: 1,
		source: func(p params, seed int64, c int) source { return newUniformSource(p, seed, c) },
	},
	{
		name:    "batch",
		why:     "uncached 64-query BatchTopK calls: BRS, fused traversal and in-batch dedupe do the work",
		clients: 1, instances: 16, opts: gir.EngineOptions{CacheCapacity: -1}, warm: warmCalls, every: 0,
		source: func(p params, seed int64, c int) source {
			return newBatchSource(p, newZipfSource(p, seed, p.BatchPool, c))
		},
	},
	{
		name:    "churn",
		why:     "hot reads mixed with 5% fsynced inserts/deletes: COW, WAL, cache repair and the generation fence all run",
		clients: 1, instances: 4, opts: gir.EngineOptions{RepairMode: true}, durable: true, warm: warmPool, every: 1,
		source: func(p params, seed int64, c int) source { return newChurnSource(p, seed, c) },
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

type opKind uint8

const (
	opRead opKind = iota
	opBatch
	opInsert
	opDelete
)

// op is one client operation. q and batch vectors are owned by the
// source and overwritten by its next call; p is fresh per insert, since
// the dataset keeps it.
type op struct {
	kind  opKind
	q     []float64
	k     int
	batch []gir.Query
	id    int64
	p     []float64
}

type source interface{ next(o *op) }

// Stream seeds: each stream gets its own generator, derived from the run
// seed and a tag, so the data, the pools and every client's draws are
// independent and reproducible.
const (
	tagInstance int64 = iota + 1
	tagPool
	tagClient
	tagFill
	tagWarm
	tagWrites
	tagProbe
	tagProbeReads
)

// instanceSeed derives the seed of a run's part-th set-up. Each set-up
// has its own data, pools and draws, so a run measures several
// independent instances of the workload and one instance's luck weighs
// only its share.
func instanceSeed(seed int64, part int) int64 { return streamRand(seed, tagInstance, part).Int63() }

// clientCount is how many closed-loop clients the workload runs: its own
// count, capped at the number of CPUs.
func clientCount(w *workload) int { return min(w.clients, runtime.NumCPU()) }

func streamRand(seed, tag int64, client int) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(tag)<<32 + uint64(client)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

func drawK(p params, r *rand.Rand) int { return p.KMin + r.Intn(p.KMax-p.KMin+1) }

// zipfPool draws the popular vectors, in [0.15, 0.85]^d.
func zipfPool(p params, seed int64, size int) [][]float64 {
	r := streamRand(seed, tagPool, size)
	pool := make([][]float64, size)
	for i := range pool {
		q := make([]float64, p.D)
		for j := range q {
			q[j] = 0.15 + 0.7*r.Float64()
		}
		pool[i] = q
	}
	return pool
}

// zipfSource draws pool vectors by Zipf popularity; half the draws are
// jittered, so they hit a cached region without repeating a key.
type zipfSource struct {
	p    params
	pool [][]float64
	r    *rand.Rand
	zipf *rand.Zipf
	buf  []float64
}

func newZipfSource(p params, seed int64, poolSize, client int) *zipfSource {
	return newZipfSourceTagged(p, seed, poolSize, tagClient, client)
}

func newZipfSourceTagged(p params, seed int64, poolSize int, tag int64, client int) *zipfSource {
	r := streamRand(seed, tag, client)
	return &zipfSource{
		p:    p,
		pool: zipfPool(p, seed, poolSize),
		r:    r,
		zipf: rand.NewZipf(r, p.ZipfS, 1, uint64(poolSize-1)),
		buf:  make([]float64, p.D),
	}
}

func (s *zipfSource) draw(dst []float64) int {
	copy(dst, s.pool[s.zipf.Uint64()])
	if s.r.Intn(2) == 0 {
		for j := range dst {
			dst[j] = min(1, max(0.01, dst[j]+s.p.Jitter*s.r.NormFloat64()))
		}
	}
	return drawK(s.p, s.r)
}

func (s *zipfSource) next(o *op) {
	o.kind, o.q = opRead, s.buf
	o.k = s.draw(s.buf)
}

// cycleSource replays a fixed list of HotDraws Zipf draws. The cache is
// warmed with every draw on the list, so the timed reads are region hits
// until a write invalidates one: hot measures the hit path at a steady
// state rather than the slow decay of jitter misses, each of which costs
// thousands of hits.
type cycleSource struct {
	qs [][]float64
	ks []int
	i  int
}

func newCycleSource(p params, seed int64, client int) *cycleSource {
	z := newZipfSource(p, seed, p.HotPool, client)
	s := &cycleSource{qs: make([][]float64, p.HotDraws), ks: make([]int, p.HotDraws)}
	for i := range s.qs {
		s.qs[i] = make([]float64, p.D)
		s.ks[i] = z.draw(s.qs[i])
	}
	return s
}

func (s *cycleSource) next(o *op) {
	o.kind, o.q, o.k = opRead, s.qs[s.i], s.ks[s.i]
	s.i = (s.i + 1) % len(s.qs)
}

// uniformSource draws fresh vectors uniformly from [0.05, 1]^d.
type uniformSource struct {
	p   params
	r   *rand.Rand
	buf []float64
}

func newUniformSource(p params, seed int64, client int) *uniformSource {
	return &uniformSource{p: p, r: streamRand(seed, tagClient, client), buf: make([]float64, p.D)}
}

func uniformVector(r *rand.Rand, dst []float64) {
	for j := range dst {
		dst[j] = 0.05 + 0.95*r.Float64()
	}
}

func (s *uniformSource) next(o *op) {
	uniformVector(s.r, s.buf)
	o.kind, o.q, o.k = opRead, s.buf, drawK(s.p, s.r)
}

// batchSource groups BatchSize Zipf draws over the batch pool per call.
type batchSource struct {
	z     *zipfSource
	batch []gir.Query
}

func newBatchSource(p params, z *zipfSource) *batchSource {
	s := &batchSource{z: z, batch: make([]gir.Query, p.BatchSize)}
	for i := range s.batch {
		s.batch[i].Vector = make([]float64, p.D)
	}
	return s
}

func (s *batchSource) next(o *op) {
	for i := range s.batch {
		s.batch[i].K = s.z.draw(s.batch[i].Vector)
	}
	o.kind, o.batch = opBatch, s.batch
}

// writeGen makes writes that alternate between inserting a fresh record
// and deleting a random record it inserted earlier; every fourth insert
// lands near the top corner, where it displaces cached results. The
// pattern is fixed rather than drawn, so every run of a given length
// does the same number of each kind: those corner inserts and their
// deletes evict most of the cache, and a count that varied by chance
// would move churn's read rate more than any code change. Base records
// are never deleted, which the oracle relies on.
type writeGen struct {
	p       params
	r       *rand.Rand
	nextID  int64
	inserts int
	deletes bool
	live    []int64
	points  map[int64][]float64
}

func newWriteGen(p params, seed, tag int64, stream int) *writeGen {
	return &writeGen{p: p, r: streamRand(seed, tag, stream), nextID: 1 << 40, points: map[int64][]float64{}}
}

func (g *writeGen) next(o *op) {
	g.deletes = !g.deletes
	if g.deletes && len(g.live) > 0 {
		j := g.r.Intn(len(g.live))
		id := g.live[j]
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		o.kind, o.id, o.p = opDelete, id, g.points[id]
		delete(g.points, id)
		return
	}
	pt := make([]float64, g.p.D)
	corner := g.inserts%4 == 3
	for j := range pt {
		if corner {
			pt[j] = 0.9 + 0.099*g.r.Float64()
		} else {
			pt[j] = g.r.Float64()
		}
	}
	g.inserts++
	o.kind, o.id, o.p = opInsert, g.nextID, pt
	g.live = append(g.live, g.nextID)
	g.points[g.nextID] = pt
	g.nextID++
}

// churnSource interleaves hot's cycled reads with writes: every
// (1/WriteMix)-th op is a write, for the reason writeGen gives.
type churnSource struct {
	reads  *cycleSource
	writes *writeGen
	every  int
	n      int
}

func newChurnSource(p params, seed int64, client int) *churnSource {
	return &churnSource{
		reads:  newCycleSource(p, seed, client),
		writes: newWriteGen(p, seed, tagWrites, client),
		every:  int(math.Round(1 / p.WriteMix)),
	}
}

func (s *churnSource) next(o *op) {
	s.n++
	if s.n%s.every == 0 {
		s.writes.next(o)
		return
	}
	s.reads.next(o)
}
