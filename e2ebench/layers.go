package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"texid/internal/blas"
	"texid/internal/engine"
	"texid/internal/gpusim"
	"texid/internal/kvstore"
	"texid/internal/sift"
	"texid/internal/wire"
)

// reconcileTolerance is how far the sum of the traced layers of a request
// may sit from the untraced median latency before the run says so.
const reconcileTolerance = 0.20

// layerSamples is how many of the workload's captures the layer pass
// extracts, encodes, decodes and searches directly on the engines.
const layerSamples = 8

// runTraced measures one workload layer by layer: set-up with spans, an
// untraced timed phase (the reference figures), a traced replay of the
// workload's first rounds with both clients, then a pass of direct calls
// into the layers below the REST API with the replay's queries.
func runTraced(w workload, o options) (*result, error) {
	tr := newTracer()
	b, err := buildSystem(w, tr)
	if err != nil {
		return nil, err
	}
	defer b.st.close()
	cl := b.st.cl

	tr.on.Store(false)
	u := timed(w, b, o.seconds)
	tr.on.Store(true)

	// Replay, with the program's own counters read around it.
	c := newClient(b.st.base, nil)
	defer c.close()
	wall0, n0, err := c.wallHist()
	if err != nil {
		return nil, err
	}
	sv0 := cl.ServeStats()
	prof0 := profiles(cl.Workers())
	replay, replayWall := phase(w, b.st, tr, 0, w.replayRounds())
	prof1 := profiles(cl.Workers())
	sv1 := cl.ServeStats()
	wall1, n1, err := c.wallHist()
	if err != nil {
		return nil, err
	}
	var batches, hostBatches int
	for _, e := range cl.Workers() {
		s := e.Stats()
		batches += s.Batches
		hostBatches += s.Cache.HostItems
	}

	lp, err := layerPass(w, b.st, tr)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: replay.attempted + lp.attempted, Failed: replay.failed + lp.failed}
	for _, e := range append(replay.errs, lp.errs...) {
		fmt.Fprintln(os.Stderr, "failed operation:", e)
	}

	spans := tr.snapshot()
	lt := groupByName(spans)
	rt := requestTimes(spans)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Client path and REST layer, from the replay; extraction from the layer
	// pass where the replay extracts nothing.
	extract := durations(spans, "sift.extract", true)
	if len(extract) == 0 {
		extract = durations(spans, "sift.extract", false)
	}
	encode := durations(spans, "wire.encode", true)
	put("sift.extract_ms", median(extract), "ms")
	put("sift.features", lp.features, "count")
	put("sift.enroll_ms_per_ref", median(perItem(spans, "sift.enroll")), "ms")
	put("wire.encode_ms", median(encode), "ms")
	put("wire.decode_ms", median(lt.total["wire.decode"]), "ms")
	put("wire.record_kb", lp.recordKB, "KiB")
	put("cluster.roundtrip_ms", median(rt.roundtrip), "ms")
	put("cluster.handler_ms", median(rt.handler), "ms")
	put("cluster.transport_ms", median(rt.transport), "ms")
	searchWall := 0.0
	if n1 > n0 {
		searchWall = (wall1 - wall0) / (n1 - n0)
	}
	put("cluster.search_wall_ms", searchWall, "ms")
	put("cluster.codec_ms", mean(rt.handler)-searchWall, "ms")
	put("cluster.write_handler_ms", median(lt.total["cluster.write_handler"]), "ms")
	put("cluster.compact_ms", median(lt.total["cluster.compact_handler"]), "ms")
	meanBatch := 0.0
	if sv1.Batches > sv0.Batches {
		meanBatch = float64(sv1.Submitted-sv0.Submitted) / float64(sv1.Batches-sv0.Batches)
	}
	put("serve.mean_batch", meanBatch, "queries")
	put("serve.batches", float64(sv1.Batches-sv0.Batches), "count")

	// Engine, prefilter and kvstore, from the direct calls.
	put("engine.search_ms", median(lt.total["engine.search"]), "ms")
	put("engine.search_batch_ms", median(lt.total["engine.search_batch"]), "ms")
	put("engine.compared", lp.compared, "refs")
	put("engine.scanned", lp.scanned, "refs")
	put("engine.batches", float64(batches), "count")
	put("engine.host_batches", float64(hostBatches), "count")
	put("engine.reclaimed", mean(append(replay.reclaimed, lp.reclaimed...)), "count")
	put("engine.update_ms", median(lt.total["engine.update"]), "ms")
	put("engine.add_ms", median(lt.total["engine.add"]), "ms")
	put("engine.remove_ms", median(lt.total["engine.remove"]), "ms")
	put("binq.rerank_share", lp.rerankShare, "ratio")
	put("binq.union_over_c", lp.unionOverC, "ratio")
	put("kvstore.set_ms", median(lt.total["kvstore.set"]), "ms")
	put("kvstore.keys", float64(lp.keys), "count")

	// Simulated device, per query of the replay, summed over workers.
	q := float64(replay.queries)
	d := profileDelta(prof0, prof1)
	put("gpusim.gemm_us", d.us("gemm/")/q, "sim_us")
	put("gpusim.top2_us", d.us("top2scan/")/q, "sim_us")
	put("gpusim.h2d_us", d.us("copy/h2d")/q, "sim_us")
	put("gpusim.d2h_us", d.us("copy/d2h")/q, "sim_us")
	put("gpusim.post_us", d.us("host/post")/q, "sim_us")
	put("gpusim.binscan_us", d.us("binscan")/q, "sim_us")
	put("gpusim.gather_us", d.us("binq/gather")/q, "sim_us")
	put("gpusim.kernels", d.kernels()/q, "count")

	// The write tail, untraced: the timed phase's writes in churn, the
	// enrollment probe bursts of the set-up builds elsewhere.
	writes := u.rec.writeMS
	if !w.writesTimed() {
		writes = b.probe.writeMS
	}
	w95, err := percentile(writes, 0.95)
	if err != nil {
		return nil, fmt.Errorf("write latency: %w", err)
	}
	put("cluster.write_p95_ms", w95, "ms")

	// Go runtime, over the untraced timed phase.
	ops := float64(u.rec.attempted)
	put("runtime.gc_cycles", float64(u.numGC)/ops*100, "count/100op")
	put("runtime.gc_pause_ms", float64(u.pauseNS)/1e6/ops*100, "ms/100op")

	notes := reconcile(w, u, rt, extract, encode, replay, replayWall, searchWall)
	path, err := dumpTrace(tr, w.name(), o.seed, notes)
	if err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)
	res.Metrics = m
	return res, nil
}

// reqTimes are per-request durations (ms) of the replay's search requests.
type reqTimes struct {
	request, roundtrip, handler, transport []float64
}

// requestTimes pairs each client round trip with the handler span nested
// under it, keeping the searches (the handler named cluster.handler).
func requestTimes(spans []span) reqTimes {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := selfTimes(spans)
	var rt reqTimes
	seen := map[int64]bool{}
	for _, h := range spans {
		if h.Name != "cluster.handler" {
			continue
		}
		p, ok := byID[h.Parent]
		if !ok || p.Name != "cluster.roundtrip" {
			continue
		}
		rt.roundtrip = append(rt.roundtrip, ms(time.Duration(p.End-p.Start)))
		rt.handler = append(rt.handler, ms(time.Duration(h.End-h.Start)))
		rt.transport = append(rt.transport, ms(self[p.ID]))
		if r, ok := byID[p.Parent]; ok && r.Name == "request" && !seen[r.ID] {
			seen[r.ID] = true
			rt.request = append(rt.request, ms(time.Duration(r.End-r.Start)))
		}
	}
	return rt
}

// durations returns the named spans' durations (ms): those under a request
// of the replay (inRequest) or those of the direct calls (roots).
func durations(spans []span, name string, inRequest bool) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && (s.Parent != 0) == inRequest {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// perItem returns each named span's duration divided by its item count.
func perItem(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Items > 0 {
			out = append(out, ms(time.Duration(s.End-s.Start))/float64(s.Items))
		}
	}
	return out
}

// reconcile prints the traced layers beside the untraced figures: the
// layers of a search request must add up to the untraced median latency
// within reconcileTolerance, and the difference between the traced and the
// untraced request latency is the tracing overhead.
func reconcile(w workload, u *untraced, rt reqTimes, extract, encode []float64, replay *recorder, replayWall time.Duration, searchWall float64) map[string]any {
	untracedP50 := median(u.rec.latMS)
	layers := median(encode) + median(rt.roundtrip)
	parts := "encode + round trip"
	if w.name() == "identify_http" {
		layers += median(extract)
		parts = "extract + encode + round trip"
	}
	off := layers/untracedP50 - 1
	traced := median(rt.request)
	overhead := traced/untracedP50 - 1
	// Second decomposition: transport + codec + search wall = round trip,
	// in means, since the program reports its search wall time as a mean.
	rtMean := mean(rt.roundtrip)
	sumMean := mean(rt.transport) + (mean(rt.handler) - searchWall) + searchWall
	ok := off >= -reconcileTolerance && off <= reconcileTolerance
	verdict := "reconciled"
	if !ok {
		verdict = "NOT reconciled"
	}
	fmt.Printf("untraced: latency p50 %.2f ms over %d requests, %.2f queries/s\n",
		untracedP50, len(u.rec.latMS), float64(u.rec.queries)/u.wall.Seconds())
	fmt.Printf("traced:   latency p50 %.2f ms over %d requests, %.2f queries/s; tracing overhead %+.1f%%\n",
		traced, len(rt.request), float64(replay.queries)/replayWall.Seconds(), overhead*100)
	fmt.Printf("%s: %s p50s = %.2f ms vs untraced p50 %.2f ms (%+.1f%%, tolerance ±%.0f%%)\n",
		verdict, parts, layers, untracedP50, off*100, reconcileTolerance*100)
	fmt.Printf("transport %.2f + codec %.2f + search wall %.2f = %.2f ms vs round trip %.2f ms (means)\n",
		mean(rt.transport), mean(rt.handler)-searchWall, searchWall, sumMean, rtMean)
	return map[string]any{
		"untraced_latency_p50_ms": untracedP50,
		"traced_latency_p50_ms":   traced,
		"tracing_overhead":        overhead,
		"layers_sum_ms":           layers,
		"layers":                  parts,
		"reconcile_offset":        off,
		"reconcile_tolerance":     reconcileTolerance,
		"reconciled":              ok,
		"roundtrip_mean_ms":       rtMean,
		"transport_codec_wall_ms": sumMean,
	}
}

// passResult is what the direct-call layer pass measured.
type passResult struct {
	recorder
	features, recordKB      float64
	compared, scanned       float64
	rerankShare, unionOverC float64
	keys                    int
}

// layerPass calls each layer's public functions directly, one call at a
// time: sift.Extract on the workload's captures, wire.Encode/Decode of the
// records, engine.Search and SearchBatch on every worker with the decoded
// queries, engine Add/Update/Remove of a scratch id, a compaction over
// REST, and a kvstore Set of a record the size the cluster persists.
func layerPass(w workload, st *stack, tr *tracer) (*passResult, error) {
	lp := &passResult{}
	lp.tr = tr
	cfg := extractConfig(queryFeatures)
	var decoded []*wire.FeatureRecord
	var feats, kb []float64
	for _, im := range w.samples() {
		sp := tr.begin("sift.extract", 0, 0)
		f := sift.Extract(im, cfg)
		tr.endN(sp, f.Count())
		feats = append(feats, float64(f.Count()))
		sp = tr.begin("wire.encode", 0, 0)
		raw := wire.Encode(record(0, f))
		tr.end(sp)
		kb = append(kb, float64(len(raw))/1024)
		sp = tr.begin("wire.decode", 0, 0)
		rec, err := wire.Decode(raw)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("decoding a query record: %w", err)
		}
		decoded = append(decoded, rec)
	}
	lp.features, lp.recordKB = mean(feats), mean(kb)

	workers := st.cl.Workers()
	var compared, scanned float64
	for _, rec := range decoded {
		for _, e := range workers {
			sp := tr.begin("engine.search", 0, 0)
			rep, err := e.Search(rec.Features, rec.Keypoints)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("engine search: %w", err)
			}
			compared += float64(rep.Compared)
			scanned += float64(rep.Scanned)
		}
	}
	lp.compared = compared / float64(len(decoded))
	lp.scanned = scanned / float64(len(decoded))
	lp.rerankShare = 1 // unpruned: every reference is reranked
	if scanned > 0 {
		lp.rerankShare = compared / scanned
	}

	// Batches of the workload's batch size; the union of the batch's
	// candidates on a worker over the mean candidates per query is how much
	// rerank work batching adds per query.
	B := w.batch()
	var unions []float64
	for k := 0; k+B <= len(decoded); k += B {
		var qf []*blas.Matrix
		var qk [][]sift.Keypoint
		for _, rec := range decoded[k : k+B] {
			qf = append(qf, rec.Features)
			qk = append(qk, rec.Keypoints)
		}
		for _, e := range workers {
			sp := tr.begin("engine.search_batch", 0, 0)
			br, err := e.SearchBatch(qf, qk)
			tr.end(sp)
			if err != nil {
				return nil, fmt.Errorf("engine batch search: %w", err)
			}
			union := map[int]bool{}
			per := 0
			for _, rep := range br.Reports {
				for _, r := range rep.Ranked {
					union[r.RefID] = true
				}
				per += len(rep.Ranked)
			}
			if per > 0 {
				unions = append(unions, float64(len(union))*float64(len(br.Reports))/float64(per))
			}
		}
	}
	lp.unionOverC = mean(unions)

	// Engine writes on a scratch id the cluster never hands out.
	e := workers[0]
	for i, rec := range decoded {
		id := scratchID + i
		ref := rec.Features.Slice(0, refFeatures).Clone()
		other := decoded[(i+1)%len(decoded)].Features.Slice(0, refFeatures).Clone()
		if err := timedErr(tr, "engine.add", func() error { return e.Add(id, ref, rec.Keypoints[:refFeatures]) }); err != nil {
			return nil, fmt.Errorf("engine add: %w", err)
		}
		if err := timedErr(tr, "engine.update", func() error { return e.Update(id, other, nil) }); err != nil {
			return nil, fmt.Errorf("engine update: %w", err)
		}
		sp := tr.begin("engine.remove", 0, 0)
		ok := e.Remove(id)
		tr.end(sp)
		if !ok {
			return nil, fmt.Errorf("engine remove: scratch id %d not found", id)
		}
	}

	// A compaction over REST: it reclaims the scratch id's dead slots.
	cl := newClient(st.base, tr)
	defer cl.close()
	req := tr.begin("request", 0, 0)
	n, err := cl.compact(req)
	tr.end(req)
	lp.done(err)
	if err == nil {
		lp.reclaimed = append(lp.reclaimed, float64(n))
	}

	// kvstore: a Set of a record the size the cluster persists (FP16
	// descriptors), on the stack's store or, where the workload persists
	// nothing, on a store started for the probe.
	kvAddr := ""
	if st.kv != nil {
		kvAddr = st.kv.Addr()
	} else {
		srv, err := kvstore.Serve(kvstore.NewStore(), "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		kvAddr = srv.Addr()
	}
	kc, err := kvstore.Dial(kvAddr)
	if err != nil {
		return nil, err
	}
	defer kc.Close()
	probe := decoded[0]
	rec := &wire.FeatureRecord{ID: 1, Precision: gpusim.FP16, Scale: 1,
		Features: probe.Features.Slice(0, refFeatures).Clone(), Keypoints: probe.Keypoints[:refFeatures]}
	val := wire.Encode(rec)
	for i := 0; i < 20; i++ {
		if err := timedErr(tr, "kvstore.set", func() error { return kc.Set("bench:probe", val) }); err != nil {
			return nil, fmt.Errorf("kvstore set: %w", err)
		}
	}
	if _, err := kc.Del("bench:probe"); err != nil {
		return nil, err
	}
	if st.kv != nil {
		n, err := kc.DBSize()
		if err != nil {
			return nil, err
		}
		lp.keys = n
	}
	return lp, nil
}

// scratchID is the first id of the layer pass's direct engine writes.
const scratchID = 2_000_000

func timedErr(tr *tracer, name string, f func() error) error {
	sp := tr.begin(name, 0, 0)
	err := f()
	tr.end(sp)
	return err
}

type profile map[string]gpusim.OpStats

func profiles(es []*engine.Engine) profile {
	out := profile{}
	for _, e := range es {
		for k, v := range e.Device().Profile() {
			s := out[k]
			s.Count += v.Count
			s.TotalUS += v.TotalUS
			out[k] = s
		}
	}
	return out
}

func profileDelta(a, b profile) profile {
	out := profile{}
	for k, v := range b {
		out[k] = gpusim.OpStats{Count: v.Count - a[k].Count, TotalUS: v.TotalUS - a[k].TotalUS}
	}
	return out
}

// us sums simulated time over the operations whose name starts with prefix.
func (p profile) us(prefix string) float64 {
	t := 0.0
	for _, k := range sortedKeys(p) {
		if strings.HasPrefix(k, prefix) {
			t += p[k].TotalUS
		}
	}
	return t
}

// kernels counts the device compute operations (copies and host
// post-processing excluded).
func (p profile) kernels() float64 {
	n := 0
	for k, v := range p {
		if !strings.HasPrefix(k, "copy/") && !strings.HasPrefix(k, "host/") {
			n += v.Count
		}
	}
	return float64(n)
}
