package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"texid/internal/cluster"
	"texid/internal/wire"
)

// Checkers compare one answer of the program with a fact the benchmark
// knows apart from the program (which texture a capture was rendered from,
// which ids a client wrote last) or with a property the method must have
// (a batch answers each query as a lone search does). Each returns nil or
// the reason the operation counts as failed.

func checkWhole(r cluster.SearchResponse) error {
	if r.Partial || r.ShardsAnswered != r.ShardsTotal || r.ShardsTotal != workers {
		return fmt.Errorf("degraded answer: %d/%d shards (partial=%v)", r.ShardsAnswered, r.ShardsTotal, r.Partial)
	}
	return nil
}

// checkIdentified: a capture of an enrolled texture must name it, accepted.
// After an update this is also the stale-read check: the capture of the new
// version must name the updated id.
func checkIdentified(r cluster.SearchResponse, want int) error {
	if err := checkWhole(r); err != nil {
		return err
	}
	if !r.Accepted || r.BestID != want {
		return fmt.Errorf("capture of texture %d answered best_id=%d accepted=%v score=%d", want, r.BestID, r.Accepted, r.Score)
	}
	return nil
}

// checkRejected: a texture that was never enrolled must not be accepted.
func checkRejected(r cluster.SearchResponse) error {
	if err := checkWhole(r); err != nil {
		return err
	}
	if r.Accepted {
		return fmt.Errorf("foreign texture accepted as %d (score %d)", r.BestID, r.Score)
	}
	return nil
}

// checkUnpruned: without pruning every enrolled reference is compared.
func checkUnpruned(r cluster.SearchResponse, enrolled int) error {
	if r.Compared != enrolled {
		return fmt.Errorf("unpruned search compared %d references, %d enrolled", r.Compared, enrolled)
	}
	return nil
}

// single is a query's answer when sent alone.
type single struct{ bestID, score int }

// checkSameAsSingle: a query answered inside a batch must get the answer it
// gets alone.
func checkSameAsSingle(r cluster.SearchResponse, alone single) error {
	if err := checkWhole(r); err != nil {
		return err
	}
	if r.BestID != alone.bestID || r.Score != alone.score {
		return fmt.Errorf("batched answer best_id=%d score=%d, alone best_id=%d score=%d", r.BestID, r.Score, alone.bestID, alone.score)
	}
	return nil
}

// checkNotReturned: a deleted texture is no longer returned under its id,
// neither as the answer nor among the ranked candidates.
func checkNotReturned(r cluster.SearchResponse, deleted int) error {
	if err := checkWhole(r); err != nil {
		return err
	}
	if r.BestID == deleted && r.Accepted {
		return fmt.Errorf("deleted texture %d still identified (score %d)", deleted, r.Score)
	}
	for _, c := range r.Ranked {
		if c.RefID == deleted {
			return fmt.Errorf("deleted texture %d still ranked (score %d)", deleted, c.Score)
		}
	}
	return nil
}

// checkStore: the kvstore must hold exactly the live ids ("tex:<id>"), each
// decoding to the last record written under that id. The store keeps
// descriptors in the engine's FP16 precision, so each value may differ
// from the one sent by binary16 rounding and no more.
func checkStore(stored map[string][]byte, want map[int]*wire.FeatureRecord) error {
	var got []int
	for k := range stored {
		id, err := strconv.Atoi(strings.TrimPrefix(k, "tex:"))
		if err != nil || !strings.HasPrefix(k, "tex:") {
			return fmt.Errorf("unexpected kvstore key %q", k)
		}
		got = append(got, id)
	}
	var live []int
	for id := range want {
		live = append(live, id)
	}
	sort.Ints(got)
	sort.Ints(live)
	if fmt.Sprint(got) != fmt.Sprint(live) {
		return fmt.Errorf("kvstore holds ids %v, live ids are %v", got, live)
	}
	for _, id := range live {
		rec, err := wire.Decode(stored[fmt.Sprintf("tex:%d", id)])
		if err != nil {
			return fmt.Errorf("kvstore record %d: %w", id, err)
		}
		if err := sameRecord(rec, want[id]); err != nil {
			return fmt.Errorf("kvstore record %d: %w", id, err)
		}
	}
	return nil
}

func sameRecord(got, want *wire.FeatureRecord) error {
	if got.ID != want.ID {
		return fmt.Errorf("id %d, want %d", got.ID, want.ID)
	}
	g, w := got.Features, want.Features
	if g.Rows != w.Rows || g.Cols != w.Cols {
		return fmt.Errorf("features %dx%d, want %dx%d", g.Rows, g.Cols, w.Rows, w.Cols)
	}
	for j := 0; j < w.Cols; j++ {
		gc, wc := g.Col(j), w.Col(j)
		for i, v := range wc {
			// binary16 keeps 11 significant bits: half an ulp is 2^-11
			// relative; 2^-24 covers the subnormal range.
			if d := math.Abs(float64(gc[i] - v)); d > math.Abs(float64(v))/2048+1.0/(1<<24) {
				return fmt.Errorf("descriptor (%d,%d) = %g, last written %g", i, j, gc[i], v)
			}
		}
	}
	if len(got.Keypoints) != len(want.Keypoints) {
		return fmt.Errorf("%d keypoints, want %d", len(got.Keypoints), len(want.Keypoints))
	}
	for i, k := range want.Keypoints {
		gk := got.Keypoints[i]
		if float32(gk.X) != float32(k.X) || float32(gk.Y) != float32(k.Y) {
			return fmt.Errorf("keypoint %d at (%g,%g), want (%g,%g)", i, gk.X, gk.Y, k.X, k.Y)
		}
	}
	return nil
}

// checkFootprint: the simulated memory held per reference must be exactly
// the feature payload plus, with pruning, the binary code panel.
func checkFootprint(perRef, want float64) error {
	if perRef != want {
		return fmt.Errorf("cache holds %.1f B per reference, footprint is %.0f B", perRef, want)
	}
	return nil
}
