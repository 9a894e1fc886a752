package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// kvClient is the store surface the workload drives, implemented over
// HTTP/JSON and over the binary wire protocol. One kvClient may be shared
// by several workers (the tcp client pipelines their requests on one
// connection).
type kvClient interface {
	get(key uint64) (string, bool, error)
	put(key uint64, val string) error
	del(key uint64) error
	cas(key uint64, old, new string) (swapped bool, err error)
	add(key uint64, delta int64) error
	mget(keys []uint64) ([]tkv.OpResult, error)
	batch(ops []tkv.Op) (mismatch bool, nres int, err error)
}

// ---- binary wire protocol client ----

// tcpKV adapts one pipelined tkvwire connection to the kvClient surface.
// Many workers share one tcpKV; the connection interleaves their requests.
type tcpKV struct {
	c *tkvwire.Conn
}

func (t *tcpKV) get(key uint64) (string, bool, error) { return t.c.Get(key) }

func (t *tcpKV) put(key uint64, val string) error {
	_, err := t.c.Put(key, val)
	return err
}

func (t *tcpKV) del(key uint64) error {
	_, err := t.c.Delete(key)
	return err
}

func (t *tcpKV) cas(key uint64, old, new string) (bool, error) {
	return t.c.CAS(key, old, new)
}

func (t *tcpKV) add(key uint64, delta int64) error {
	_, err := t.c.Add(key, delta)
	return err
}

func (t *tcpKV) mget(keys []uint64) ([]tkv.OpResult, error) { return t.c.MGet(keys) }

func (t *tcpKV) batch(ops []tkv.Op) (bool, int, error) {
	results, err := t.c.Batch(ops)
	if errors.Is(err, tkv.ErrCASMismatch) {
		return true, len(results), nil
	}
	if err != nil {
		return false, 0, err
	}
	return false, len(results), nil
}

// ---- HTTP client ----

// wire is a pooled response-read buffer: the driver's own per-response
// decoder allocations shouldn't pollute the latency it is measuring. Only
// the response side is pooled — a response body is fully drained
// synchronously inside do() before the buffer is reused, whereas a pooled
// *request* body would race with the transport's background write loop
// whenever the server answers before reading the whole body (early non-200,
// reset), so request bodies stay freshly allocated per call.
type wire struct {
	resp bytes.Buffer
}

var wirePool = sync.Pool{New: func() any { return new(wire) }}

// httpKV drives the HTTP/JSON surface through a pooled http.Client. It is
// also every scenario's control client: seeding and verification (snapshot,
// stats) always go over HTTP regardless of the measured protocol.
type httpKV struct {
	base   string
	client *http.Client
}

// newHTTPClient pools enough connections for workers concurrent callers.
// Callers defer CloseIdleConnections: a server's graceful shutdown waits for
// connections that were dialed and never used, and run is also called
// in-process.
func newHTTPClient(workers int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		},
	}
}

func (h *httpKV) get(key uint64) (string, bool, error) {
	resp, err := h.client.Get(fmt.Sprintf("%s/kv/%d", h.base, key))
	if err != nil {
		return "", false, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return "", false, nil
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		return "", false, fmt.Errorf("GET key %d: %w", key, tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK {
		return "", false, fmt.Errorf("GET key %d: status %d", key, resp.StatusCode)
	}
	w := wirePool.Get().(*wire)
	defer wirePool.Put(w)
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return "", false, err
	}
	var body struct {
		Value string `json:"value"`
	}
	if err := json.Unmarshal(w.resp.Bytes(), &body); err != nil {
		return "", false, err
	}
	return body.Value, true, nil
}

func (h *httpKV) put(key uint64, val string) error {
	b, err := json.Marshal(map[string]string{"value": val})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, fmt.Sprintf("%s/kv/%d", h.base, key), bytes.NewReader(b))
	if err != nil {
		return err
	}
	return h.do(req, nil, nil)
}

func (h *httpKV) del(key uint64) error {
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/kv/%d", h.base, key), nil)
	if err != nil {
		return err
	}
	return h.do(req, nil, nil)
}

func (h *httpKV) cas(key uint64, old, new string) (bool, error) {
	var resp struct {
		Swapped bool `json:"swapped"`
	}
	err := h.postJSON("/cas", map[string]any{"key": key, "old": old, "new": new}, &resp)
	return resp.Swapped, err
}

func (h *httpKV) add(key uint64, delta int64) error {
	var resp struct {
		Value int64 `json:"value"`
	}
	return h.postJSON("/add", map[string]any{"key": key, "delta": delta}, &resp)
}

func (h *httpKV) mget(keys []uint64) ([]tkv.OpResult, error) {
	var resp struct {
		Results []tkv.OpResult `json:"results"`
	}
	if err := h.postJSON("/mget", map[string]any{"keys": keys}, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// batch posts a batch, distinguishing acceptance (200, returns the result
// count) from a whole-batch cas mismatch (409 with casMismatch set; nothing
// was written).
func (h *httpKV) batch(ops []tkv.Op) (mismatch bool, nres int, err error) {
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		return false, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+"/batch", bytes.NewReader(b))
	if err != nil {
		return false, 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return false, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return false, 0, fmt.Errorf("POST /batch: %w", tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		return false, 0, fmt.Errorf("POST /batch: status %d", resp.StatusCode)
	}
	w := wirePool.Get().(*wire)
	defer wirePool.Put(w)
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return false, 0, err
	}
	var body struct {
		Results     []tkv.OpResult `json:"results"`
		CASMismatch bool           `json:"casMismatch"`
	}
	if err := json.Unmarshal(w.resp.Bytes(), &body); err != nil {
		return false, 0, err
	}
	if resp.StatusCode == http.StatusConflict {
		if !body.CASMismatch {
			return false, 0, fmt.Errorf("POST /batch: 409 without casMismatch")
		}
		return true, len(body.Results), nil
	}
	return false, len(body.Results), nil
}

func (h *httpKV) snapshot() (map[uint64]string, error) {
	snap := map[uint64]string{}
	if err := h.getJSON("/snapshot", &snap); err != nil {
		return nil, err
	}
	return snap, nil
}

func (h *httpKV) stats() (tkv.Stats, error) {
	var stats tkv.Stats
	err := h.getJSON("/stats", &stats)
	return stats, err
}

func (h *httpKV) postJSON(path string, body, into any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	return h.do(req, nil, into)
}

func (h *httpKV) getJSON(path string, into any) error {
	req, err := http.NewRequest(http.MethodGet, h.base+path, nil)
	if err != nil {
		return err
	}
	return h.do(req, nil, into)
}

// do sends req and decodes the response into `into` (when non-nil) via w's
// response buffer; a nil w borrows one from the pool.
func (h *httpKV) do(req *http.Request, w *wire, into any) error {
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusServiceUnavailable {
		// The server shed the request under overload: surface the same
		// sentinel the in-process and binary-protocol paths produce.
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, tkv.ErrBackpressure)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if into == nil {
		return nil
	}
	if w == nil {
		w = wirePool.Get().(*wire)
		defer wirePool.Put(w)
	}
	w.resp.Reset()
	if _, err := io.Copy(&w.resp, resp.Body); err != nil {
		return err
	}
	return json.Unmarshal(w.resp.Bytes(), into)
}
