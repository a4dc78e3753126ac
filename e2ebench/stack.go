package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"texid/internal/cluster"
	"texid/internal/engine"
	"texid/internal/kvstore"
	"texid/internal/serve"
	"texid/internal/wire"
)

// The serving stack under test is texsearchd's, built in-process from the
// same packages: a 2-worker cluster behind its REST handler on a loopback
// listener, coalescing at max-batch 16 with a 200 µs window, and
// optionally the embedded kvstore persisting every write.
const (
	workers       = 2
	maxBatch      = 16
	batchWindow   = 200 * time.Microsecond
	clients       = 2 // closed-loop capture stations, one connection each
	clientTimeout = 60 * time.Second
)

type stack struct {
	cl   *cluster.Cluster
	srv  *http.Server
	base string
	done chan struct{}
	db   *kvstore.Store
	kv   *kvstore.Server
}

// startStack builds the cluster (and the embedded kvstore when persist is
// set) and serves its handler on a loopback port. With a tracer, every
// request's time inside the handler is recorded as a span.
func startStack(cfg engine.Config, persist bool, tr *tracer) (*stack, error) {
	st := &stack{}
	storeAddr := ""
	if persist {
		st.db = kvstore.NewStore()
		kv, err := kvstore.Serve(st.db, "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("starting kvstore: %w", err)
		}
		st.kv = kv
		storeAddr = kv.Addr()
	}
	cl, err := cluster.New(cluster.Config{
		Workers:   workers,
		Engine:    cfg,
		StoreAddr: storeAddr,
		Serve:     serve.Options{MaxBatch: maxBatch, Window: batchWindow},
	})
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	st.cl = cl
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, st.close())
	}
	h := cl.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	st.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	st.base = "http://" + ln.Addr().String()
	st.done = make(chan struct{})
	go func() {
		defer close(st.done)
		_ = st.srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return st, nil
}

// close stops the listener, waits for the serving goroutine, and releases
// the cluster and the kvstore.
func (st *stack) close() error {
	var errs []error
	if st.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, st.srv.Shutdown(ctx))
		cancel()
		<-st.done
	}
	if st.cl != nil {
		errs = append(errs, st.cl.Close())
	}
	if st.kv != nil {
		errs = append(errs, st.kv.Close())
	}
	return errors.Join(errs...)
}

// Headers that carry the client's span across the loopback hop, so the
// handler's span nests under the client's round trip.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

func traceHandler(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		name := "cluster.handler"
		switch {
		case r.URL.Path == "/v1/compact":
			name = "cluster.compact_handler"
		case strings.HasPrefix(r.URL.Path, "/v1/textures"):
			name = "cluster.write_handler"
		}
		id := tr.begin(name, parent, req)
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

// client is one capture station: it talks to the REST API the way
// cmd/texsearch does (wire.Encode → base64 → JSON over HTTP), on its own
// connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// encode is wire.Encode plus base64, as a span of its own.
func (c *client) encode(rec *wire.FeatureRecord, parent int64) string {
	id := c.tr.begin("wire.encode", parent, c.tr.reqOf(parent))
	s := base64.StdEncoding.EncodeToString(wire.Encode(rec))
	c.tr.end(id)
	return s
}

// do sends one JSON request and decodes the reply into out; the span covers
// request marshalling, the HTTP exchange and reply decoding.
func (c *client) do(method, path string, body, out any, parent int64) error {
	id := c.tr.begin("cluster.roundtrip", parent, c.tr.reqOf(parent))
	defer c.tr.end(id)
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr != nil {
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		req.Header.Set(hdrReq, strconv.FormatInt(c.tr.reqOf(id), 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e) // best effort: the status is the verdict
		return fmt.Errorf("%s %s: %s (%s)", method, path, resp.Status, e.Error)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type textureBody struct {
	ID        int    `json:"id,omitempty"`
	RecordB64 string `json:"record_b64"`
}

func (c *client) search(rec *wire.FeatureRecord, parent int64) (cluster.SearchResponse, error) {
	var out cluster.SearchResponse
	err := c.do(http.MethodPost, "/v1/search", textureBody{RecordB64: c.encode(rec, parent)}, &out, parent)
	return out, err
}

func (c *client) searchBatch(recs []*wire.FeatureRecord, parent int64) ([]cluster.SearchResponse, error) {
	var body struct {
		RecordsB64 []string `json:"records_b64"`
	}
	for _, r := range recs {
		body.RecordsB64 = append(body.RecordsB64, c.encode(r, parent))
	}
	var out struct {
		Results []cluster.SearchResponse `json:"results"`
	}
	if err := c.do(http.MethodPost, "/v1/search/batch", body, &out, parent); err != nil {
		return nil, err
	}
	if len(out.Results) != len(recs) {
		return nil, fmt.Errorf("batch of %d answered with %d results", len(recs), len(out.Results))
	}
	return out.Results, nil
}

func (c *client) add(id int, rec *wire.FeatureRecord, parent int64) error {
	return c.do(http.MethodPost, "/v1/textures", textureBody{ID: id, RecordB64: c.encode(rec, parent)}, nil, parent)
}

func (c *client) update(id int, rec *wire.FeatureRecord, parent int64) error {
	return c.do(http.MethodPut, fmt.Sprintf("/v1/textures/%d", id), textureBody{RecordB64: c.encode(rec, parent)}, nil, parent)
}

func (c *client) remove(id int, parent int64) error {
	return c.do(http.MethodDelete, fmt.Sprintf("/v1/textures/%d", id), nil, nil, parent)
}

func (c *client) compact(parent int64) (int, error) {
	var out struct {
		Reclaimed int `json:"reclaimed"`
	}
	err := c.do(http.MethodPost, "/v1/compact", nil, &out, parent)
	return out.Reclaimed, err
}

// wallHist reads the program's own wall-latency histogram (sum and count,
// in ms) from /metrics.
func (c *client) wallHist() (sumMS, count float64, err error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, perr := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "texid_search_wall_latency_ms_sum":
			sumMS, err = v, perr
		case "texid_search_wall_latency_ms_count":
			count, err = v, perr
		}
		if err != nil {
			return 0, 0, err
		}
	}
	return sumMS, count, sc.Err()
}
