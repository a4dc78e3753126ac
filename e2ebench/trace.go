package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the recorder's start, the span that caused it, and the request it served.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"` // work items the call handled, where counted
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay only a nil check per call site; a traced
// run switches recording off for its untraced phase.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	if req == 0 {
		req = id
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes the span opened by begin.
func (t *tracer) end(id int64) { t.endN(id, 0) }

// endN closes the span and records how many items the call handled.
func (t *tracer) endN(id int64, items int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Items = items
	t.mu.Unlock()
}

// reqOf returns the request id a span belongs to.
func (t *tracer) reqOf(id int64) int64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].Req
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children (overlapping children are merged first).
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// layerTimes groups span durations (total and self) by span name, in ms.
type layerTimes struct {
	total map[string][]float64
	self  map[string][]float64
}

func groupByName(spans []span) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{total: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		lt.total[s.Name] = append(lt.total[s.Name], ms(time.Duration(s.End-s.Start)))
		lt.self[s.Name] = append(lt.self[s.Name], ms(self[s.ID]))
	}
	return lt
}

// dumpTrace writes every span plus the per-layer self-time medians to
// .bench_build/traces/<workload>-seed<seed>.json under the working
// directory.
func dumpTrace(t *tracer, workload string, seed int64, extra map[string]any) (string, error) {
	spans := t.snapshot()
	lt := groupByName(spans)
	summary := map[string]map[string]float64{}
	for name, v := range lt.self {
		summary[name] = map[string]float64{
			"count":     float64(len(v)),
			"self_p50":  median(v),
			"total_p50": median(lt.total[name]),
			"self_sum":  sum(v),
			"total_sum": sum(lt.total[name]),
		}
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	b, err := json.MarshalIndent(map[string]any{
		"workload": workload, "seed": seed, "layers_ms": summary, "notes": extra, "spans": spans,
	}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
