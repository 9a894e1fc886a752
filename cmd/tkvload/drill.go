package main

// What the scenarios share: seeding and summing the counters over the wire,
// and, for the two drills, the HTTP control calls they make of tkvd
// (readiness, /quit, /promote) and the load they put on it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/shrink-tm/shrink/internal/tkv"
	"github.com/shrink-tm/shrink/internal/tkvwire"
)

// seedCounters writes "0" to every counter key over c so CAS loops always
// find a value. A shedding server (tkvd -admit in drill mode, as the
// backpressure drill runs it) rejects writes probabilistically, so each key
// retries through backpressure; any other error is fatal immediately.
func seedCounters(c *tkvwire.Conn, keys int) error {
	const seedAttempts = 200
	for k := 0; k < keys; k++ {
		var err error
		for attempt := 0; attempt < seedAttempts; attempt++ {
			if _, err = c.Put(uint64(k), "0"); err == nil {
				break
			}
			if !errors.Is(err, tkv.ErrBackpressure) {
				return fmt.Errorf("seeding counters: %w", err)
			}
			time.Sleep(time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("seeding counter %d: every attempt shed: %w", k, err)
		}
	}
	return nil
}

// counterSum sums the counter keys over one consistent snapshot taken on c.
func counterSum(c *tkvwire.Conn, keys int) (uint64, error) {
	snap, err := c.Snapshot()
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	var sum uint64
	for k := 0; k < keys; k++ {
		v, ok := snap[uint64(k)]
		if !ok {
			return 0, fmt.Errorf("counter key %d vanished", k)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("counter key %d holds %q", k, v)
		}
		sum += n
	}
	return sum, nil
}

// control is the drills' HTTP client. tkvd serves no data over HTTP; what
// the drills ask of it there is readiness, /quit and /promote.
var control = &http.Client{Timeout: 10 * time.Second}

// post issues an empty POST and returns the status code (0 on transport
// error).
func post(url string) int {
	resp, err := control.Post(url, "", nil)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// wireAddr asks the tkvd whose control URL is url for its wire address; an
// error means it is not serving.
func wireAddr(url string) (string, error) {
	resp, err := control.Get(url + "/healthz")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s/healthz: status %d", url, resp.StatusCode)
	}
	var health struct{ Wire string }
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return "", err
	}
	return health.Wire, nil
}

// increments is the drills' load: workers adding 1 to the counter keys over
// the wire, at whichever address the drill last pointed them to, tallying
// only acknowledged adds. A worker that meets a transport error (the server
// died or is shutting down) drops its connection and dials the current
// target on its next op; a status reply (not primary, backpressure) keeps
// it. A failed add counts nothing and is retried after a short pause.
type increments struct {
	target        atomic.Pointer[string]
	acked, failed atomic.Uint64
	stop          chan struct{}
	wg            sync.WaitGroup
}

func startIncrements(addr string, keys, workers int) *increments {
	l := &increments{stop: make(chan struct{})}
	l.retarget(addr)
	for w := 0; w < workers; w++ {
		l.wg.Add(1)
		go l.work(w, keys)
	}
	return l
}

// retarget points every later dial at addr.
func (l *increments) retarget(addr string) { l.target.Store(&addr) }

// halt stops the workers and waits for them.
func (l *increments) halt() {
	close(l.stop)
	l.wg.Wait()
}

func (l *increments) work(w, keys int) {
	defer l.wg.Done()
	var c *tkvwire.Conn
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for i := 0; ; i++ {
		select {
		case <-l.stop:
			return
		default:
		}
		var err error
		if c == nil {
			c, err = tkvwire.Dial(*l.target.Load())
		}
		if err == nil {
			if _, err = c.Add(uint64((w*7919+i)%keys), 1); err == nil {
				l.acked.Add(1)
				continue
			}
			var status *tkvwire.StatusError
			if !errors.As(err, &status) {
				c.Close()
				c = nil
			}
		}
		l.failed.Add(1)
		time.Sleep(2 * time.Millisecond)
	}
}
