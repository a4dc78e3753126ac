package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"texid/internal/engine"
	"texid/internal/sift"
	"texid/internal/texture"
	"texid/internal/wire"
)

// search_pruned_batch: query features are extracted before timing and sent
// as POST /v1/search/batch requests of batchSize queries against a shard-
// scale index — a few real references among many distractors assembled
// from descriptor columns of other real textures that are never queried.
// Pruning is on and the device cache holds one batch per worker, so the
// older batch sits in host cache and reranking copies only candidates.
// The binary prefilter scan, the batched FP16 rerank of the union of the
// batch's candidates, candidate-only H2D and the cluster merge do the
// work; SIFT does none.
type prunedBatch struct {
	reals, distractors, sources int
	batchSize, pruneC           int
	difficulty                  float64

	realIms []*texture.Image
	capIms  []*texture.Image
	pool    *columnPool
	dseeds  []int64
	queries []*wire.FeatureRecord
	want    []int
	singles []single
	order   []int // enrollment order: index into reals (>= 0) or distractors (^j)
}

func newPrunedBatch(sz size) *prunedBatch {
	w := &prunedBatch{reals: 8, distractors: 532, sources: 6, batchSize: 2, pruneC: 1, difficulty: 0.4}
	if sz == smallSize {
		w.reals, w.distractors, w.sources = 2, 20, 1
	}
	return w
}

func (w *prunedBatch) name() string { return "search_pruned_batch" }

// distractorID is the id of distractor j.
func distractorID(j int) int { return 10_000 + j }

// config is texsearchd's default engine with pruning on and a device cache
// of one reference batch per worker.
func (w *prunedBatch) config() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.PruneC = w.pruneC
	cfg.GPUCacheBytes = int64(cfg.BatchSize) * refFeatures * sift.DescriptorDim * 2
	return cfg
}

func (w *prunedBatch) prepare(seed int64) error {
	rng := inputRand(seed, w.name())
	w.realIms = textures(rng, w.reals)
	src := textures(rng, w.sources)
	w.pool = &columnPool{feats: sift.ExtractBatch(src, extractConfig(refFeatures))}
	w.dseeds = make([]int64, w.distractors)
	for j := range w.dseeds {
		w.dseeds[j] = rng.Int63()
	}
	caps := make([]*texture.Image, w.reals)
	w.want = make([]int, w.reals)
	for i := range caps {
		caps[i] = capture(rng, w.realIms[i], w.difficulty)
		w.want[i] = i + 1
	}
	w.queries = extractQueries(caps)
	w.capIms = caps
	// Real references are spread evenly through the enrollment order, four
	// per worker. Each worker's first 256 references seal into the batch
	// that is demoted to host cache, so the true candidates stream over
	// PCIe; the device-resident batch holds the last distractors.
	total := w.reals + w.distractors
	w.order = make([]int, 0, total)
	next := 0
	for k := 0; k < total; k++ {
		if next < w.reals && k*w.reals/total >= next {
			w.order = append(w.order, next)
			next++
		} else {
			w.order = append(w.order, ^(k - next))
		}
	}
	return nil
}

func (w *prunedBatch) setup(tr *tracer) (*stack, error) {
	recs, err := enrollExtracted(w.realIms, tr)
	if err != nil {
		return nil, err
	}
	st, err := startStack(w.config(), false, tr)
	if err != nil {
		return nil, err
	}
	cl := newClient(st.base, tr)
	defer cl.close()
	for _, k := range w.order {
		var r *wire.FeatureRecord
		if k >= 0 {
			r = recs[k]
		} else {
			r = w.pool.distractor(distractorID(^k), w.dseeds[^k])
		}
		if err := cl.add(int(r.ID), r, 0); err != nil {
			return nil, errors.Join(err, st.close())
		}
	}
	// Ready to serve: the partial batches seal on the first search.
	if _, err := cl.searchBatch(w.queries[:1], 0); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

// ready records each query's answer alone, for the batch-equals-single
// check; it runs after set-up and is not timed.
func (w *prunedBatch) ready(st *stack) error {
	cl := newClient(st.base, nil)
	defer cl.close()
	w.singles = make([]single, len(w.queries))
	for i, q := range w.queries {
		r, err := cl.search(q, 0)
		if err != nil {
			return err
		}
		if err := checkIdentified(r, w.want[i]); err != nil {
			return fmt.Errorf("single search: %w", err)
		}
		w.singles[i] = single{r.BestID, r.Score}
	}
	return nil
}

// round sends every query once, in batches; client c pairs the queries
// with an offset of c so the two clients' batches differ.
func (w *prunedBatch) round(st *stack, cl *client, c, r int, rec *recorder) {
	n := len(w.queries)
	for k := 0; k+w.batchSize <= n; k += w.batchSize {
		idx := make([]int, w.batchSize)
		recs := make([]*wire.FeatureRecord, w.batchSize)
		for i := range idx {
			idx[i] = (k + i + c) % n
			recs[i] = w.queries[idx[i]]
		}
		req := rec.tr.begin("request", 0, 0)
		t0 := time.Now()
		resps, err := cl.searchBatch(recs, req)
		lat := time.Since(t0)
		rec.tr.end(req)
		if err == nil {
			rec.latMS = append(rec.latMS, ms(lat))
			for i, resp := range resps {
				rec.simMS = append(rec.simMS, resp.ElapsedUS/1000)
				rec.queries++
				if err == nil {
					err = checkIdentified(resp, w.want[idx[i]])
				}
				if err == nil {
					err = checkSameAsSingle(resp, w.singles[idx[i]])
				}
			}
		}
		rec.done(err)
	}
}

func (w *prunedBatch) enough(requests, _ int64) bool { return requests >= minSamples }
func (w *prunedBatch) writesTimed() bool             { return false }
func (w *prunedBatch) finish(*stack) error           { return nil }

// footprint: FP16 features plus one 16-byte binary code per descriptor.
func (w *prunedBatch) footprint() float64 {
	return refFeatures*sift.DescriptorDim*2 + refFeatures*16
}

func (w *prunedBatch) samples() []*texture.Image { return w.capIms[:min(layerSamples, len(w.capIms))] }
func (w *prunedBatch) batch() int                { return w.batchSize }
func (w *prunedBatch) replayRounds() int         { return 3 }

func (w *prunedBatch) probe(st *stack, cl *client, rec *recorder) {
	rng := rand.New(rand.NewSource(w.dseeds[0]))
	recs := make([]*wire.FeatureRecord, 8)
	for i := range recs {
		recs[i] = w.pool.distractor(0, rng.Int63())
	}
	enrollProbe(cl, recs, rec)
}
