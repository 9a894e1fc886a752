package main

// What the two drills share: the HTTP control calls they make of tkvd
// (readiness, /quit, /promote) and the end of their verdict.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

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

// drillVerdict judges a drill on one snapshot of the server it ended on
// (detail goes on its tally line): a lost acknowledged increment fails it,
// and an increment that landed after its ack died with a connection is
// reported, not failed.
func drillVerdict(d *driver, name, detail string, out io.Writer) error {
	snap, _, err := d.snapshot()
	if err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	acked, sum, err := d.acks.verdict(snap, true)
	fmt.Fprintf(out, "%s: acked=%d counter-sum=%d retried-errors=%d %s\n", name, acked, sum, d.errs.Load(), detail)
	if err != nil {
		return err
	}
	if sum > acked {
		fmt.Fprintf(out, "%s: %d unacknowledged increment(s) landed (committed; the ack died with its connection) — not a loss\n",
			name, sum-acked)
	}
	fmt.Fprintf(out, "%s: PASS — zero lost acknowledged updates\n", name)
	return nil
}
