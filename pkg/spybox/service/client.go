// The HTTP client of a `spybox serve` process. Client implements
// spybox.JobService, so code written against the interface switches
// between in-process and remote execution by swapping a constructor —
// and the CLI's submit/status/wait subcommands are built purely on
// this type, which keeps the HTTP API complete enough to self-host.

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"spybox/pkg/spybox"
	"spybox/pkg/spybox/report"
)

// Client speaks the /v1 jobs API.
type Client struct {
	base string
	hc   *http.Client
}

var _ spybox.JobService = (*Client)(nil)

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8080"). The scheme is defaulted to http:// and a
// trailing slash is dropped, so bare "host:port" works too.
func NewClient(base string) *Client {
	base = strings.TrimSuffix(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: base, hc: &http.Client{}}
}

// do runs one request and decodes the JSON response into out (when
// non-nil), mapping error payloads back to errors — 404s on job
// resources unwrap to spybox.ErrNoJob, 503s to spybox.ErrClosed, so
// errors.Is works across the wire.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return c.asError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// asError turns a non-2xx response into an error carrying the
// server's message.
func (c *Client) asError(resp *http.Response) error {
	var e errorJSON
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		msg = e.Error
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		if strings.Contains(msg, spybox.ErrNoJob.Error()) {
			return fmt.Errorf("%w (%s)", spybox.ErrNoJob, strings.TrimPrefix(msg, spybox.ErrNoJob.Error()+": "))
		}
	case http.StatusServiceUnavailable:
		return fmt.Errorf("%w (%s)", spybox.ErrClosed, resp.Status)
	}
	return fmt.Errorf("service: %s %s: %s", resp.Request.Method, resp.Request.URL.Path, msg)
}

// Submit implements spybox.JobService.
func (c *Client) Submit(spec spybox.JobSpec) (spybox.JobID, error) {
	var status spybox.JobStatus
	if err := c.do(http.MethodPost, "/v1/jobs", spec, &status); err != nil {
		return "", err
	}
	return status.ID, nil
}

// SubmitBatch submits a sweep (POST /v1/jobs:batch); the server
// expands it into one job per experiment × scale × seed combination.
func (c *Client) SubmitBatch(spec BatchSpec) (BatchStatus, error) {
	var st BatchStatus
	err := c.do(http.MethodPost, "/v1/jobs:batch", spec, &st)
	return st, err
}

// Batch fetches a batch's member jobs and census (GET /v1/batches/{id}).
func (c *Client) Batch(id string) (BatchStatus, error) {
	var st BatchStatus
	err := c.do(http.MethodGet, "/v1/batches/"+id, nil, &st)
	return st, err
}

// WaitBatch polls until every job in the batch is terminal (or ctx
// ends), with the same gentle backoff as Wait.
func (c *Client) WaitBatch(ctx context.Context, id string) (BatchStatus, error) {
	var st BatchStatus
	err := pollUntil(ctx, func() (bool, error) {
		var err error
		st, err = c.Batch(id)
		return st.Terminal(), err
	})
	return st, err
}

// Job implements spybox.JobService.
func (c *Client) Job(id spybox.JobID) (spybox.JobStatus, error) {
	var status spybox.JobStatus
	err := c.do(http.MethodGet, "/v1/jobs/"+string(id), nil, &status)
	return status, err
}

// Jobs lists every job on the server, in submission order.
func (c *Client) Jobs() ([]spybox.JobStatus, error) {
	var jobs []spybox.JobStatus
	err := c.do(http.MethodGet, "/v1/jobs", nil, &jobs)
	return jobs, err
}

// Wait implements spybox.JobService by polling with gentle backoff
// (25ms doubling to 500ms). Polling rather than holding an SSE stream
// keeps Wait robust against proxies that buffer event streams; use
// Events for live progress.
func (c *Client) Wait(ctx context.Context, id spybox.JobID) (spybox.JobStatus, error) {
	var status spybox.JobStatus
	err := pollUntil(ctx, func() (bool, error) {
		var err error
		status, err = c.Job(id)
		return status.State.Terminal(), err
	})
	return status, err
}

// pollUntil calls done until it reports true or fails, sleeping 25ms
// doubling to 500ms between calls, and returns ctx's error if ctx ends
// first. A nil ctx polls until done.
func pollUntil(ctx context.Context, done func() (bool, error)) error {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: a nil ctx means wait forever, per the JobService contract
		ctx = context.Background()
	}
	delay := 25 * time.Millisecond
	for {
		if ok, err := done(); err != nil || ok {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
		if delay *= 2; delay > 500*time.Millisecond {
			delay = 500 * time.Millisecond
		}
	}
}

// Cancel implements spybox.JobService (POST .../cancel — the record
// survives; see Delete).
func (c *Client) Cancel(id spybox.JobID) error {
	return c.do(http.MethodPost, "/v1/jobs/"+string(id)+"/cancel", nil, nil)
}

// Delete cancels the job if live and removes its record.
func (c *Client) Delete(id spybox.JobID) error {
	return c.do(http.MethodDelete, "/v1/jobs/"+string(id), nil, nil)
}

// Result implements spybox.JobService, decoding the report/v1
// document the server serves for terminal jobs.
func (c *Client) Result(id spybox.JobID) ([]*report.Result, error) {
	doc, err := c.ResultDocument(id)
	if err != nil {
		return nil, err
	}
	return report.Decode(bytes.NewReader(doc))
}

// ResultDocument returns the raw report/v1 bytes of a terminal job,
// exactly as the server sent them — for consumers that care about
// byte identity (the cache smoke test) or just pipe the document on.
func (c *Client) ResultDocument(id spybox.JobID) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+string(id)+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return nil, c.asError(resp)
	}
	return io.ReadAll(resp.Body)
}

// Experiments fetches the registry metadata (GET /v1/experiments).
func (c *Client) Experiments() ([]spybox.ExperimentInfo, error) {
	var infos []spybox.ExperimentInfo
	err := c.do(http.MethodGet, "/v1/experiments", nil, &infos)
	return infos, err
}

// Stats fetches the queue and cache counters (GET /v1/stats).
func (c *Client) Stats() (Stats, error) {
	var st Stats
	err := c.do(http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Events consumes the job's SSE stream, invoking fn for every
// progress message, until the stream's final status message (or the
// context ends). The returned status is normally terminal, but a
// draining server closes the streams of still-queued jobs — check
// State.Terminal() before fetching results. fn may be nil to just
// wait on the stream.
func (c *Client) Events(ctx context.Context, id spybox.JobID, fn func(EventMsg)) (spybox.JobStatus, error) {
	if ctx == nil {
		//spylint:allow ctxflow documented nil-ctx default: a nil ctx means follow the stream to its final status
		ctx = context.Background()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+string(id)+"/events", nil)
	if err != nil {
		return spybox.JobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return spybox.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return spybox.JobStatus{}, c.asError(resp)
	}
	var event string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data := []byte(line[len("data: "):])
			switch event {
			case "progress":
				var msg EventMsg
				if err := json.Unmarshal(data, &msg); err == nil && fn != nil {
					fn(msg)
				}
			case "status":
				var status spybox.JobStatus
				if err := json.Unmarshal(data, &status); err != nil {
					return spybox.JobStatus{}, fmt.Errorf("service: bad terminal status: %w", err)
				}
				return status, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return spybox.JobStatus{}, ctx.Err()
		}
		return spybox.JobStatus{}, err
	}
	return spybox.JobStatus{}, errors.New("service: event stream ended without a terminal status")
}
