// Package client is the importable HTTP client for the gpureld v1 API: job
// submission and streaming — campaign points for CLIs (avfsvf -daemon) and
// selective-hardening advise jobs — and the lease protocol for fleet workers
// (gpureld -worker). Every method takes a context; none retries by itself —
// workers wrap calls with Retry and a jittered exponential Backoff.
package client

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

	"gpurel"
	"gpurel/internal/campaign"
	"gpurel/internal/service"
)

// ErrGone marks a lease the coordinator no longer tracks (expired and
// requeued, or returned): the worker must abandon it and request a new one.
var ErrGone = errors.New("lease gone")

// Client talks to one coordinator daemon.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (default http.DefaultClient). Do not
	// set a global timeout on it: event streams are long-lived.
	HTTP *http.Client
	// PollInterval is the status-poll fallback cadence used by WaitJob when
	// the event stream is unavailable (default 500ms).
	PollInterval time.Duration
}

// New returns a client for the daemon at baseURL.
func New(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues one JSON request and decodes the response into out (skipped when
// out is nil or the response has no content). Returns the status code.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// The v1 error envelope: {"error":{"code","message"}}.
		var env service.ErrorEnvelope
		if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
			return resp.StatusCode, fmt.Errorf("%s %s: %s: %s (HTTP %d)",
				method, path, env.Error.Code, env.Error.Message, resp.StatusCode)
		}
		// Pre-envelope daemons answered {"error":"..."}.
		var ae struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &ae) == nil && ae.Error != "" {
			return resp.StatusCode, fmt.Errorf("%s %s: %s (HTTP %d)", method, path, ae.Error, resp.StatusCode)
		}
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// SubmitJob enqueues a campaign job.
func (c *Client) SubmitJob(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	var st service.JobStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &st)
	return st, err
}

// GetJob fetches a job's status.
func (c *Client) GetJob(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// ListJobs fetches all jobs.
func (c *Client) ListJobs(ctx context.Context) ([]service.JobStatus, error) {
	var out []service.JobStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out, err
}

// CancelJob asks the daemon to stop a job at its next chunk boundary.
func (c *Client) CancelJob(ctx context.Context, id string) (service.JobStatus, error) {
	var st service.JobStatus
	_, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &st)
	return st, err
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// errStreamEnded marks an event stream the daemon closed (drain, restart,
// proxy hiccup) before the watcher chose to stop.
var errStreamEnded = errors.New("stream ended before a terminal event")

// watch is the one NDJSON reader behind WatchEvents and WatchFleet: it GETs
// path and hands each decoded line to fn until fn reports it has seen enough
// (nil), fn fails, or ctx ends. A stream that ends first returns an error
// wrapping errStreamEnded. what names the stream in errors.
func watch[E any](ctx context.Context, c *Client, path, what string, fn func(E) (done bool, err error)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", what, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev E
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("%s: bad line: %w", what, err)
		}
		if done, err := fn(ev); done || err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("%s: %w", what, errStreamEnded)
}

// WatchEvents consumes a job's NDJSON event stream, invoking fn per event
// until the job reaches a terminal state, fn returns an error, or ctx ends.
func (c *Client) WatchEvents(ctx context.Context, id string, fn func(service.Event) error) error {
	return watch(ctx, c, "/v1/jobs/"+id+"/events", "events "+id, func(ev service.Event) (bool, error) {
		return ev.Job.State.Terminal(), fn(ev)
	})
}

// WaitJob blocks until the job is terminal, preferring the event stream and
// falling back to polling whenever the stream breaks (e.g. across a daemon
// restart — journaled jobs, advise jobs included, resume on the new
// process).
func (c *Client) WaitJob(ctx context.Context, id string) (service.JobStatus, error) {
	poll := c.PollInterval
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}
	for {
		var last service.JobStatus
		err := c.WatchEvents(ctx, id, func(ev service.Event) error { last = ev.Job; return nil })
		if err == nil && last.State.Terminal() {
			return last, nil
		}
		if ctx.Err() != nil {
			return last, ctx.Err()
		}
		// Stream broke (daemon restarting, proxy hiccup): poll instead.
		select {
		case <-ctx.Done():
			return last, ctx.Err()
		case <-time.After(poll):
		}
		if st, gerr := c.GetJob(ctx, id); gerr == nil && st.State.Terminal() {
			return st, nil
		}
	}
}

// RunJob submits a spec and waits for it to finish — the one-call remote
// analogue of campaign.Run for a campaign point (final tally), and of
// advisor.Runner.Run for an advise spec (plan and verification in the
// status's advise group).
func (c *Client) RunJob(ctx context.Context, spec service.JobSpec) (service.JobStatus, error) {
	st, err := c.SubmitJob(ctx, spec)
	if err != nil {
		return st, err
	}
	return c.WaitJob(ctx, st.ID)
}

// RunPoint returns a Study.RunPoint hook that executes campaign points on
// the daemon:
//
//	s := gpurel.NewStudy(runs, seed)
//	s.RunPoint = client.New(url).RunPoint(ctx)
//
// The hook receives the fully derived point seed in opts, so the daemon's
// tally is bit-identical to a local campaign.Run.
func (c *Client) RunPoint(ctx context.Context) func(gpurel.PointSpec, campaign.Options) (campaign.Tally, error) {
	return func(p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error) {
		st, err := c.RunJob(ctx, service.SpecForPoint(p, opts))
		if err != nil {
			return campaign.Tally{}, err
		}
		if st.State != service.StateDone {
			return campaign.Tally{}, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
		}
		return st.Tally, nil
	}
}

// Lease requests a run-range lease from the coordinator. ok is false when
// the coordinator has no pending work (HTTP 204) — the worker sleeps and
// polls again.
func (c *Client) Lease(ctx context.Context, req service.LeaseRequest) (ls service.Lease, ok bool, err error) {
	code, err := c.do(ctx, http.MethodPost, "/v1/leases", req, &ls)
	if err != nil {
		return service.Lease{}, false, err
	}
	return ls, code == http.StatusOK, nil
}

// ReportLease streams one completed sub-range's tally back (doubling as a
// heartbeat). Returns ErrGone when the coordinator no longer tracks the
// lease.
func (c *Client) ReportLease(ctx context.Context, id string, rep service.LeaseReport) (service.LeaseAck, error) {
	var ack service.LeaseAck
	code, err := c.do(ctx, http.MethodPost, "/v1/leases/"+id+"/report", rep, &ack)
	if code == http.StatusGone {
		return ack, ErrGone
	}
	return ack, err
}

// HeartbeatLease extends the lease deadline without reporting progress.
// Returns ErrGone when the coordinator no longer tracks the lease.
func (c *Client) HeartbeatLease(ctx context.Context, id string) error {
	code, err := c.do(ctx, http.MethodPost, "/v1/leases/"+id+"/heartbeat", nil, nil)
	if code == http.StatusGone {
		return ErrGone
	}
	return err
}

// ReturnLease hands the unexecuted remainder of a lease back to the
// coordinator — the drain path of a worker shutting down.
func (c *Client) ReturnLease(ctx context.Context, id string) error {
	code, err := c.do(ctx, http.MethodDelete, "/v1/leases/"+id, nil, nil)
	if code == http.StatusGone {
		return nil // already expired and requeued: same outcome
	}
	return err
}
