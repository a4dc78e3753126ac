package main

import (
	"fmt"
	"math/rand"
	"time"

	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/sift"
	"texid/internal/texture"
	"texid/internal/wire"
)

// Feature budgets of texsearchd's defaults: m per reference, n per query.
const (
	refFeatures   = 384
	queryFeatures = 768
)

// inputRand derives the workload's generator from the run seed; every
// texture seed and capture perturbation is drawn from it in a fixed order,
// so one seed always yields the same inputs.
func inputRand(seed int64, workload string) *rand.Rand {
	h := seed
	for _, c := range workload {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h))
}

// textures renders n distinct 256-px textures.
func textures(rng *rand.Rand, n int) []*texture.Image {
	p := texture.DefaultGenParams()
	out := make([]*texture.Image, n)
	for i := range out {
		out[i] = texture.Generate(rng.Int63(), p)
	}
	return out
}

// capture renders one re-photograph of im at the given difficulty.
func capture(rng *rand.Rand, im *texture.Image, difficulty float64) *texture.Image {
	return texture.RandomPerturbation(rng, difficulty).Apply(im)
}

func extractConfig(budget int) sift.Config {
	cfg := sift.DefaultConfig()
	cfg.RootSIFT = true
	cfg.MaxFeatures = budget
	return cfg
}

// record wraps extracted features the way cmd/texsearch sends them.
func record(id int, f *sift.Features) *wire.FeatureRecord {
	return &wire.FeatureRecord{
		ID:        int64(id),
		Precision: gpusim.FP32,
		Scale:     1,
		Features:  f.Descriptors,
		Keypoints: f.Keypoints,
	}
}

// extractQueries extracts query features for every image (input synthesis
// for the workloads whose timed phase starts from features).
func extractQueries(ims []*texture.Image) []*wire.FeatureRecord {
	fs := sift.ExtractBatch(ims, extractConfig(queryFeatures))
	out := make([]*wire.FeatureRecord, len(fs))
	for i, f := range fs {
		out[i] = record(0, f)
	}
	return out
}

// columnPool is a set of (descriptor column, keypoint) pairs from real
// textures, from which distractor references are assembled.
type columnPool struct {
	feats []*sift.Features
}

// distractor assembles a reference record of refFeatures columns drawn
// from the pool by a generator seeded with seed, so distractor i is the
// same whenever it is rebuilt.
func (p *columnPool) distractor(id int, seed int64) *wire.FeatureRecord {
	rng := rand.New(rand.NewSource(seed))
	m := blas.NewMatrix(sift.DescriptorDim, refFeatures)
	kps := make([]sift.Keypoint, refFeatures)
	for c := 0; c < refFeatures; c++ {
		f := p.feats[rng.Intn(len(p.feats))]
		j := rng.Intn(f.Count())
		copy(m.Col(c), f.Descriptors.Col(j))
		kps[c] = f.Keypoints[j]
	}
	return &wire.FeatureRecord{ID: int64(id), Precision: gpusim.FP32, Scale: 1, Features: m, Keypoints: kps}
}

// enrollExtracted extracts reference features for images 1..n, timed in
// the trace as sift.enroll.
func enrollExtracted(ims []*texture.Image, tr *tracer) ([]*wire.FeatureRecord, error) {
	sp := tr.begin("sift.enroll", 0, 0)
	fs := sift.ExtractBatch(ims, extractConfig(refFeatures))
	tr.endN(sp, len(ims))
	out := make([]*wire.FeatureRecord, len(fs))
	for i, f := range fs {
		if f.Count() < refFeatures {
			return nil, fmt.Errorf("reference %d: %d features, need %d", i+1, f.Count(), refFeatures)
		}
		out[i] = record(i+1, f)
	}
	return out, nil
}

// enrollAll adds every record over HTTP, in order, from one client.
func enrollAll(st *stack, recs []*wire.FeatureRecord, tr *tracer) error {
	cl := newClient(st.base, tr)
	defer cl.close()
	for _, r := range recs {
		if err := cl.add(int(r.ID), r, 0); err != nil {
			return err
		}
	}
	return nil
}

// enrollProbe times one burst of minSamples enrollments (POST /v1/textures
// of new ids, reusing the given records), for the workloads whose timed
// phase issues no writes: a burst on each torn-down build and one after
// the timed phase.
func enrollProbe(cl *client, recs []*wire.FeatureRecord, rec *recorder) {
	for i := 0; i < minSamples; i++ {
		t0 := time.Now()
		err := cl.add(probeID+i, recs[i%len(recs)], 0)
		if err == nil {
			rec.writeMS = append(rec.writeMS, ms(time.Since(t0)))
		}
		rec.done(err)
	}
}

// probeID is the first id the enrollment probe uses, far above every id a
// workload enrolls.
const probeID = 1_000_000
