package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"texid/internal/cluster"
	"texid/internal/texture"
)

// setupReps is how many times a run builds the system; setup_s is the
// median, and the last build serves the timed phase.
const setupReps = 3

// minSamples is the least number of timed requests (and, where the
// workload writes, of timed writes) a run collects before it may stop, so
// that p95 has ten samples beyond it.
const minSamples = 200

type size int

const (
	fullSize  size = iota
	smallSize      // tiny inputs for the benchmark's own tests
)

// workload is one fixed, seed-derived traffic mix.
type workload interface {
	name() string
	// prepare synthesizes the inputs: textures, captures, pre-extracted
	// query features. It is not part of set-up time.
	prepare(seed int64) error
	// setup builds a ready-to-serve system: reference extraction, cluster
	// (and kvstore) start, enrollment over HTTP.
	setup(tr *tracer) (*stack, error)
	// ready prepares untimed reference answers on the built system.
	ready(st *stack) error
	// round runs client c's r-th round, a fixed list of operations.
	round(st *stack, cl *client, c, r int, rec *recorder)
	// enough reports whether the timed phase has the samples it needs.
	enough(requests, writes int64) bool
	// writesTimed reports whether the timed phase itself issues writes;
	// otherwise write latency comes from the enrollment probe.
	writesTimed() bool
	// probe issues one burst of the enrollment probe's writes (POST of
	// new ids).
	probe(st *stack, cl *client, rec *recorder)
	// finish checks the end state of the live system.
	finish(st *stack) error
	// footprint is the exact simulated bytes per reference the cache must
	// hold at the end of the run, 0 where it is not asserted.
	footprint() float64
	// samples are captures the traced run's layer pass extracts and
	// searches directly on the engines, batch() at a time.
	samples() []*texture.Image
	batch() int
	// replayRounds is how many rounds per client the traced replay runs.
	replayRounds() int
}

// recorder collects one client's samples; clients never share one.
type recorder struct {
	tr        *tracer
	latMS     []float64 // the workload's request latency
	writeMS   []float64 // update, delete and add requests
	simMS     []float64 // simulated device time per query
	compactMS []float64
	reclaimed []float64
	queries   int // queries answered (each query of a batch counts)
	attempted int
	failed    int
	errs      []string
}

// done counts one operation, failed when err is non-nil.
func (r *recorder) done(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < 5 {
			r.errs = append(r.errs, err.Error())
		}
	}
}

func (r *recorder) merge(o *recorder) {
	r.latMS = append(r.latMS, o.latMS...)
	r.writeMS = append(r.writeMS, o.writeMS...)
	r.simMS = append(r.simMS, o.simMS...)
	r.compactMS = append(r.compactMS, o.compactMS...)
	r.reclaimed = append(r.reclaimed, o.reclaimed...)
	r.queries += o.queries
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
}

// phase runs the clients concurrently, each looping whole rounds. With
// rounds > 0 each client runs exactly that many; otherwise they stop at the
// first round boundary after the deadline at which enough samples exist.
func phase(w workload, st *stack, tr *tracer, seconds float64, rounds int) (*recorder, time.Duration) {
	var reqs, writes atomic.Int64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	recs := make([]*recorder, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		recs[c] = &recorder{tr: tr}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(st.base, tr)
			defer cl.close()
			rec := recs[c]
			for r := 0; ; r++ {
				nl, nw := len(rec.latMS), len(rec.writeMS)
				w.round(st, cl, c, r, rec)
				reqs.Add(int64(len(rec.latMS) - nl))
				writes.Add(int64(len(rec.writeMS) - nw))
				if rounds > 0 {
					if r+1 >= rounds {
						return
					}
				} else if time.Now().After(deadline) && w.enough(reqs.Load(), writes.Load()) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	all := &recorder{}
	for _, r := range recs {
		all.merge(r)
	}
	return all, wall
}

// heapLive is the live Go heap after forced collections, in bytes.
func heapLive() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cacheBytesPerRef is the simulated memory the cluster holds per enrolled
// reference: device allocation less the runtime overhead and the engines'
// stream workspaces, plus the host-cache bytes in use.
func cacheBytesPerRef(cl *cluster.Cluster) float64 {
	var bytes int64
	refs := 0
	for _, e := range cl.Workers() {
		d := e.Device()
		s := e.Stats()
		bytes += d.Allocated() - d.Spec.RuntimeOverhead - e.WorkspaceBytes() + s.Cache.HostUsed
		refs += s.References
	}
	return float64(bytes) / float64(refs)
}

// built is the system after the set-up repetitions.
type built struct {
	st       *stack
	setupS   []float64
	heapBase float64
	probe    recorder // enrollment probe bursts, where the timed phase writes nothing
}

// probeBurst runs one burst of the enrollment probe against st.
func probeBurst(w workload, st *stack, tr *tracer, rec *recorder) {
	cl := newClient(st.base, tr)
	w.probe(st, cl, rec)
	cl.close()
}

// buildSystem sets the system up setupReps times, tearing down all but the
// last, and measures the live heap just before the last build. Where the
// timed phase writes nothing, each torn-down build first takes a burst of
// the enrollment probe, so the probe samples several moments of the run.
func buildSystem(w workload, tr *tracer) (*built, error) {
	b := &built{probe: recorder{tr: tr}}
	for i := 0; i < setupReps; i++ {
		if i == setupReps-1 {
			b.heapBase = heapLive()
		} else {
			runtime.GC()
		}
		t0 := time.Now()
		st, err := w.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if !w.writesTimed() {
				probeBurst(w, st, tr, &b.probe)
			}
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
			continue
		}
		b.st = st
	}
	if err := w.ready(b.st); err != nil {
		return nil, errors.Join(fmt.Errorf("preparing reference answers: %w", err), b.st.close())
	}
	return b, nil
}

func run(w workload, o options) (*result, error) {
	if err := w.prepare(o.seed); err != nil {
		return nil, fmt.Errorf("preparing inputs: %w", err)
	}
	if o.trace {
		return runTraced(w, o)
	}
	b, err := buildSystem(w, nil)
	if err != nil {
		return nil, err
	}
	defer b.st.close()
	m, res, err := measure(w, b, o)
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// untraced is what an untraced timed phase measured.
type untraced struct {
	rec      *recorder
	wall     time.Duration
	allocB   uint64
	numGC    uint32
	pauseNS  uint64
	perRef   float64
	heapLive float64
}

func timed(w workload, b *built, seconds float64) *untraced {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rec, wall := phase(w, b.st, nil, seconds, 0)
	runtime.ReadMemStats(&m1)
	u := &untraced{
		rec: rec, wall: wall,
		allocB:  m1.TotalAlloc - m0.TotalAlloc,
		numGC:   m1.NumGC - m0.NumGC,
		pauseNS: m1.PauseTotalNs - m0.PauseTotalNs,
	}
	u.perRef = cacheBytesPerRef(b.st.cl)
	u.heapLive = heapLive() - b.heapBase
	return u
}

// measure runs the timed phase and the end-of-run checks and returns the
// end-to-end metrics.
func measure(w workload, b *built, o options) (map[string]metric, *result, error) {
	u := timed(w, b, o.seconds)
	rec := u.rec
	res := &result{Correct: true}
	fail := func(err error) {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	if want := w.footprint(); want > 0 {
		if err := checkFootprint(u.perRef, want); err != nil {
			fail(err)
		}
	}
	if err := w.finish(b.st); err != nil {
		fail(err)
	}
	writes := rec.writeMS
	if !w.writesTimed() {
		pr := &b.probe
		probeBurst(w, b.st, nil, pr)
		if pr.failed > 0 {
			fail(fmt.Errorf("enrollment probe: %d of %d writes failed: %v", pr.failed, pr.attempted, pr.errs))
		}
		writes = pr.writeMS
	}
	for _, e := range rec.errs {
		fmt.Fprintln(os.Stderr, "failed operation:", e)
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed

	p95, err := percentile(rec.latMS, 0.95)
	if err != nil {
		return nil, nil, fmt.Errorf("latency: %w", err)
	}
	fmt.Printf("%s seed %d: %d ops (%d failed), %d queries in %.1f s; %d latency and %d write samples; setups %v s\n",
		w.name(), o.seed, rec.attempted, rec.failed, rec.queries, u.wall.Seconds(), len(rec.latMS), len(writes), b.setupS)
	m := map[string]metric{
		"setup_s":             {median(b.setupS), "s"},
		"throughput_qps":      {float64(rec.queries) / u.wall.Seconds(), "1/s"},
		"latency_p50_ms":      {median(rec.latMS), "ms"},
		"latency_p95_ms":      {p95, "ms"},
		"write_p50_ms":        {median(writes), "ms"},
		"sim_search_ms":       {median(rec.simMS), "sim_ms"},
		"cache_bytes_per_ref": {u.perRef, "B"},
		"heap_live_mb":        {u.heapLive / (1 << 20), "MiB"},
		"alloc_kb_per_op":     {float64(u.allocB) / 1024 / float64(rec.attempted), "KiB"},
	}
	return m, res, nil
}
