package main

import (
	"errors"
	"time"

	"texid/internal/engine"
	"texid/internal/sift"
	"texid/internal/texture"
	"texid/internal/wire"
)

// identify_http: capture stations send images. Each request is the whole
// client path of cmd/texsearch — sift.Extract of a 256-px capture,
// wire.Encode, POST /v1/search — against a small unpruned index. About 85%
// of the captures show enrolled textures at moderate difficulty; the rest
// show textures that were never enrolled and must be rejected. SIFT
// extraction is most of the work, so a front-end change moves this
// workload and should move no other.
type identify struct {
	refs, captures, foreign int
	difficulty              float64

	refIms  []*texture.Image
	pool    []capturedQuery
	warm    *wire.FeatureRecord   // the query that makes the system ready
	records []*wire.FeatureRecord // reference records of the last set-up
}

// capturedQuery is a capture and the id it must be identified as (-1: a
// texture never enrolled, which must be rejected).
type capturedQuery struct {
	im   *texture.Image
	want int
}

func newIdentify(sz size) *identify {
	w := &identify{refs: 4, captures: 17, foreign: 3, difficulty: 0.4}
	if sz == smallSize {
		w.refs, w.captures, w.foreign = 2, 2, 1
	}
	return w
}

func (w *identify) name() string { return "identify_http" }

func (w *identify) prepare(seed int64) error {
	rng := inputRand(seed, w.name())
	w.refIms = textures(rng, w.refs)
	foreign := textures(rng, w.foreign)
	for i := 0; i < w.captures; i++ {
		ref := i % w.refs
		w.pool = append(w.pool, capturedQuery{capture(rng, w.refIms[ref], w.difficulty), ref + 1})
	}
	for _, im := range foreign {
		w.pool = append(w.pool, capturedQuery{capture(rng, im, w.difficulty), -1})
	}
	rng.Shuffle(len(w.pool), func(i, j int) { w.pool[i], w.pool[j] = w.pool[j], w.pool[i] })
	w.warm = extractQueries([]*texture.Image{w.pool[0].im})[0]
	return nil
}

func (w *identify) setup(tr *tracer) (*stack, error) {
	recs, err := enrollExtracted(w.refIms, tr)
	if err != nil {
		return nil, err
	}
	w.records = recs
	st, err := startStack(engine.DefaultConfig(), false, tr)
	if err != nil {
		return nil, err
	}
	if err := enrollAll(st, recs, tr); err != nil {
		return nil, errors.Join(err, st.close())
	}
	// Ready to serve: one search has run.
	cl := newClient(st.base, tr)
	defer cl.close()
	if _, err := cl.search(w.warm, 0); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

// round sends half the pool; client c starts on half c and the clients
// alternate halves, so together they send the whole pool every two rounds.
func (w *identify) round(st *stack, cl *client, c, r int, rec *recorder) {
	cfg := extractConfig(queryFeatures)
	n := len(w.pool)
	half := (c + r) % 2
	for k := half * n / 2; k < (half+1)*n/2; k++ {
		q := w.pool[k]
		req := rec.tr.begin("request", 0, 0)
		t0 := time.Now()
		sp := rec.tr.begin("sift.extract", req, req)
		f := sift.Extract(q.im, cfg)
		rec.tr.end(sp)
		resp, err := cl.search(record(0, f), req)
		lat := time.Since(t0)
		rec.tr.end(req)
		if err == nil {
			rec.latMS = append(rec.latMS, ms(lat))
			rec.simMS = append(rec.simMS, resp.ElapsedUS/1000)
			rec.queries++
			if q.want > 0 {
				err = checkIdentified(resp, q.want)
			} else {
				err = checkRejected(resp)
			}
			if err == nil {
				err = checkUnpruned(resp, w.refs)
			}
		}
		rec.done(err)
	}
}

func (w *identify) enough(requests, _ int64) bool { return requests >= minSamples }
func (w *identify) writesTimed() bool             { return false }
func (w *identify) finish(*stack) error           { return nil }
func (w *identify) ready(*stack) error            { return nil }

// footprint: FP16 features, m×d per reference, no code panel.
func (w *identify) footprint() float64 { return refFeatures * sift.DescriptorDim * 2 }

func (w *identify) samples() []*texture.Image {
	var out []*texture.Image
	for _, q := range w.pool[:min(layerSamples, len(w.pool))] {
		out = append(out, q.im)
	}
	return out
}

// batch is 2: unpruned batches reach the engine only when concurrent
// requests coalesce, two at a time with two clients.
func (w *identify) batch() int        { return 2 }
func (w *identify) replayRounds() int { return 2 }

func (w *identify) probe(st *stack, cl *client, rec *recorder) {
	enrollProbe(cl, w.records, rec)
}
