package main

import (
	"errors"
	"fmt"
	"time"

	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/kvstore"
	"texid/internal/texture"
	"texid/internal/wire"
)

// churn: searches of stable references (POST /v1/search) interleaved with
// updates (PUT), deletes and re-adds of other references and a periodic
// POST /v1/compact, every write persisted to the embedded kvstore, pruning
// on. The write lock, seal-on-search of small batches, code encoding,
// compaction and kvstore persistence are on the path, so a change that
// speeds reads at the cost of writes shows here.
//
// Two faults are steered around because they fail only now and then, so
// they cannot be steady counted failures. Each client owns a disjoint pair
// of churned ids, which keeps concurrent updates of one id (engine:
// duplicate reference id) out. And every write gives an id features it has
// not held since its owner's last compaction: the prefilter ranks
// tombstoned slots with live ones, so a dead copy of the same features can
// push the live one out of the top-C and the search comes back empty.
type churn struct {
	stable, cyclesPerRound, pruneC int
	difficulty                     float64

	stableIms []*texture.Image
	capIms    []*texture.Image      // every capture, stable ones first
	stableQ   []*wire.FeatureRecord // one capture per stable reference
	own       [clients][2]churnID
	stableRec []*wire.FeatureRecord
}

// versions is how many textures each churned id cycles through. A round
// writes each id twice, so three keep every write's features distinct from
// everything the id held since the last compaction.
const versions = 3

// churnID is one client-owned id and its texture versions.
type churnID struct {
	id      int
	ims     [versions]*texture.Image
	recs    [versions]*wire.FeatureRecord // reference records (version 0 is extracted in set-up)
	caps    [versions]*wire.FeatureRecord // one capture per version
	version int                           // the version last written
	last    *wire.FeatureRecord           // the record last written
}

func newChurn(sz size) *churn {
	w := &churn{stable: 6, cyclesPerRound: 2, pruneC: 1, difficulty: 0.4}
	if sz == smallSize {
		w.stable = 2
	}
	return w
}

func (w *churn) name() string { return "churn" }

func (w *churn) config() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.PruneC = w.pruneC
	return cfg
}

func (w *churn) prepare(seed int64) error {
	rng := inputRand(seed, w.name())
	w.stableIms = textures(rng, w.stable)
	var caps []*texture.Image
	for _, im := range w.stableIms {
		caps = append(caps, capture(rng, im, w.difficulty))
	}
	var later []*texture.Image
	for c := range w.own {
		for k := range w.own[c] {
			o := &w.own[c][k]
			o.id = 100*(c+1) + k + 1
			copy(o.ims[:], textures(rng, versions))
			later = append(later, o.ims[1:]...)
			for _, im := range o.ims {
				caps = append(caps, capture(rng, im, w.difficulty))
			}
		}
	}
	q := extractQueries(caps)
	w.capIms = caps
	w.stableQ = q[:w.stable]
	q = q[w.stable:]
	recs, err := enrollExtracted(later, nil)
	if err != nil {
		return err
	}
	for c := range w.own {
		for k := range w.own[c] {
			o := &w.own[c][k]
			copy(o.caps[:], q)
			q = q[versions:]
			for v := 1; v < versions; v++ {
				o.recs[v] = recs[0]
				o.recs[v].ID = int64(o.id)
				recs = recs[1:]
			}
		}
	}
	return nil
}

func (w *churn) setup(tr *tracer) (*stack, error) {
	ims := append([]*texture.Image(nil), w.stableIms...)
	for c := range w.own {
		for k := range w.own[c] {
			ims = append(ims, w.own[c][k].ims[0])
		}
	}
	recs, err := enrollExtracted(ims, tr)
	if err != nil {
		return nil, err
	}
	w.stableRec = recs[:w.stable]
	recs = recs[w.stable:]
	for c := range w.own {
		for k := range w.own[c] {
			o := &w.own[c][k]
			o.recs[0] = recs[0]
			o.recs[0].ID = int64(o.id)
			o.version, o.last = 0, recs[0]
			recs = recs[1:]
			w.stableRec = append(w.stableRec, o.recs[0])
		}
	}
	st, err := startStack(w.config(), true, tr)
	if err != nil {
		return nil, err
	}
	if err := enrollAll(st, w.stableRec, tr); err != nil {
		return nil, errors.Join(err, st.close())
	}
	w.stableRec = w.stableRec[:w.stable]
	cl := newClient(st.base, tr)
	defer cl.close()
	if _, err := cl.search(w.stableQ[0], 0); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return st, nil
}

func (w *churn) ready(*stack) error { return nil }

// round is cyclesPerRound cycles of: update A to its next version, search
// a capture of that version (must name A: no stale read), delete B, search
// a capture of B (must not return B), re-add B with its next version,
// search a stable capture; A and B swap roles every cycle. The round ends
// with a compaction.
func (w *churn) round(st *stack, cl *client, c, r int, rec *recorder) {
	for k := 0; k < w.cyclesPerRound; k++ {
		a, b := &w.own[c][k%2], &w.own[c][(k+1)%2]

		av := (a.version + 1) % versions
		w.write(rec, func(sp int64) error { return cl.update(a.id, a.recs[av], sp) })
		a.version, a.last = av, a.recs[av]
		w.search(cl, rec, a.caps[av], func(resp cluster.SearchResponse) error { return checkIdentified(resp, a.id) })

		w.write(rec, func(sp int64) error { return cl.remove(b.id, sp) })
		w.search(cl, rec, b.caps[b.version], func(resp cluster.SearchResponse) error { return checkNotReturned(resp, b.id) })
		bv := (b.version + 1) % versions
		w.write(rec, func(sp int64) error { return cl.add(b.id, b.recs[bv], sp) })
		b.version, b.last = bv, b.recs[bv]

		s := (r*w.cyclesPerRound + k + c) % w.stable
		w.search(cl, rec, w.stableQ[s], func(resp cluster.SearchResponse) error { return checkIdentified(resp, s+1) })
	}
	req := rec.tr.begin("request", 0, 0)
	t0 := time.Now()
	n, err := cl.compact(req)
	rec.tr.end(req)
	if err == nil {
		rec.compactMS = append(rec.compactMS, ms(time.Since(t0)))
		rec.reclaimed = append(rec.reclaimed, float64(n))
	}
	rec.done(err)
}

func (w *churn) write(rec *recorder, do func(sp int64) error) {
	req := rec.tr.begin("request", 0, 0)
	t0 := time.Now()
	err := do(req)
	lat := time.Since(t0)
	rec.tr.end(req)
	if err == nil {
		rec.writeMS = append(rec.writeMS, ms(lat))
	}
	rec.done(err)
}

func (w *churn) search(cl *client, rec *recorder, q *wire.FeatureRecord, check func(cluster.SearchResponse) error) {
	req := rec.tr.begin("request", 0, 0)
	t0 := time.Now()
	resp, err := cl.search(q, req)
	lat := time.Since(t0)
	rec.tr.end(req)
	if err == nil {
		rec.latMS = append(rec.latMS, ms(lat))
		rec.simMS = append(rec.simMS, resp.ElapsedUS/1000)
		rec.queries++
		err = check(resp)
	}
	rec.done(err)
}

func (w *churn) enough(requests, writes int64) bool {
	return requests >= minSamples && writes >= minSamples
}
func (w *churn) writesTimed() bool                { return true }
func (w *churn) probe(*stack, *client, *recorder) {}
func (w *churn) footprint() float64               { return 0 }
func (w *churn) samples() []*texture.Image        { return w.capIms[:min(layerSamples, len(w.capIms))] }
func (w *churn) batch() int                       { return 2 }
func (w *churn) replayRounds() int                { return 2 }

// finish: the kvstore holds exactly the live ids, each decoding to the
// record last written under it.
func (w *churn) finish(st *stack) error {
	want := map[int]*wire.FeatureRecord{}
	for i, r := range w.stableRec {
		want[i+1] = r
	}
	for c := range w.own {
		for k := range w.own[c] {
			want[w.own[c][k].id] = w.own[c][k].last
		}
	}
	kc, err := kvstore.Dial(st.kv.Addr())
	if err != nil {
		return err
	}
	defer kc.Close()
	keys, err := kc.Keys("*")
	if err != nil {
		return err
	}
	stored := map[string][]byte{}
	for _, k := range keys {
		b, ok, err := kc.Get(k)
		if err != nil || !ok {
			return fmt.Errorf("reading %s: ok=%v err=%v", k, ok, err)
		}
		stored[k] = b
	}
	return checkStore(stored, want)
}
