package main

import (
	"strconv"
	"testing"

	"texid/internal/blas"
	"texid/internal/cluster"
	"texid/internal/gpusim"
	"texid/internal/sift"
	"texid/internal/wire"
)

func answer(best, score int, accepted bool, ranked ...int) cluster.SearchResponse {
	r := cluster.SearchResponse{BestID: best, Score: score, Accepted: accepted, ShardsAnswered: workers, ShardsTotal: workers}
	for _, id := range ranked {
		r.Ranked = append(r.Ranked, struct {
			RefID int `json:"ref_id"`
			Score int `json:"score"`
		}{id, score})
	}
	return r
}

// Each checker must pass a right answer and count a wrong one as a failed
// operation.
func TestCheckersCountWrongAnswers(t *testing.T) {
	cases := []struct {
		name         string
		right, wrong error
	}{
		{"wrong id", checkIdentified(answer(3, 40, true), 3), checkIdentified(answer(4, 40, true), 3)},
		{"degraded answer", checkIdentified(answer(3, 40, true), 3), checkIdentified(cluster.SearchResponse{BestID: 3, Accepted: true, ShardsAnswered: 1, ShardsTotal: 2, Partial: true}, 3)},
		{"accepted foreign texture", checkRejected(answer(2, 3, false)), checkRejected(answer(2, 30, true))},
		{"stale read after update", checkIdentified(answer(101, 50, true), 101), checkIdentified(answer(101, 4, false), 101)},
		{"unpruned compared count", checkUnpruned(cluster.SearchResponse{Compared: 4}, 4), checkUnpruned(cluster.SearchResponse{Compared: 3}, 4)},
		{"batch differs from single", checkSameAsSingle(answer(5, 61, true), single{5, 61}), checkSameAsSingle(answer(5, 60, true), single{5, 61})},
		{"deleted texture identified", checkNotReturned(answer(7, 3, false), 102), checkNotReturned(answer(102, 50, true), 102)},
		{"deleted texture ranked", checkNotReturned(answer(7, 3, false, 7, 8), 102), checkNotReturned(answer(7, 3, false, 7, 102), 102)},
		{"footprint", checkFootprint(104448, 104448), checkFootprint(104448.5, 104448)},
	}
	for _, c := range cases {
		var r recorder
		r.done(c.right)
		r.done(c.wrong)
		if r.attempted != 2 || r.failed != 1 {
			t.Errorf("%s: %d of %d failed, want 1 of 2 (right: %v, wrong: %v)", c.name, r.failed, r.attempted, c.right, c.wrong)
		}
	}
}

func testRecord(id int, v float32) *wire.FeatureRecord {
	m := blas.NewMatrix(sift.DescriptorDim, 3)
	for i := range m.Data {
		m.Data[i] = v + float32(i)/1000
	}
	kps := []sift.Keypoint{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	return &wire.FeatureRecord{ID: int64(id), Precision: gpusim.FP32, Scale: 1, Features: m, Keypoints: kps}
}

// stored encodes records the way the cluster persists them: FP16.
func stored(recs ...*wire.FeatureRecord) map[string][]byte {
	out := map[string][]byte{}
	for _, r := range recs {
		c := *r
		c.Precision = gpusim.FP16
		out["tex:"+strconv.Itoa(int(r.ID))] = wire.Encode(&c)
	}
	return out
}

func TestCheckStore(t *testing.T) {
	a, b := testRecord(101, 0.1), testRecord(102, 0.2)
	newer := testRecord(102, 0.6)
	want := map[int]*wire.FeatureRecord{101: a, 102: newer}
	cases := []struct {
		name  string
		store map[string][]byte
		ok    bool
	}{
		{"last records", stored(a, newer), true},
		{"stale record", stored(a, b), false},
		{"missing id", stored(a), false},
		{"extra id", stored(a, newer, testRecord(103, 0.3)), false},
		{"wrong id inside", map[string][]byte{"tex:101": stored(a)["tex:101"], "tex:102": stored(testRecord(101, 0.6))["tex:101"]}, false},
	}
	for _, c := range cases {
		var r recorder
		r.done(checkStore(c.store, want))
		if (r.failed == 0) != c.ok {
			t.Errorf("%s: failed=%d, want ok=%v (%v)", c.name, r.failed, c.ok, r.errs)
		}
	}
}
