// Selective-hardening advisor client: the /v1/advise half of the v1 API.
// The method set mirrors the campaign-job methods (Submit/Get/List/Cancel/
// Watch/Wait) so callers drive both job types the same way.
package client

import (
	"context"
	"net/http"
)

// SubmitAdvise enqueues a selective-hardening advise job.
func (c *Client) SubmitAdvise(ctx context.Context, spec AdviseSpec) (AdviseStatus, error) {
	var st AdviseStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/advise", spec, &st)
	return st, err
}

// GetAdvise fetches an advise job's status (phase, progress, and — once
// reached — the plan and its verification).
func (c *Client) GetAdvise(ctx context.Context, id string) (AdviseStatus, error) {
	var st AdviseStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/advise/"+id, nil, &st)
	return st, err
}

// ListAdvises fetches all advise jobs.
func (c *Client) ListAdvises(ctx context.Context) ([]AdviseStatus, error) {
	var out []AdviseStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/advise", nil, &out)
	return out, err
}

// CancelAdvise asks the daemon to stop an advise job at its next unit of
// work.
func (c *Client) CancelAdvise(ctx context.Context, id string) (AdviseStatus, error) {
	var st AdviseStatus
	_, err := c.do(ctx, http.MethodDelete, "/v1/advise/"+id, nil, &st)
	return st, err
}

// WatchAdviseEvents consumes an advise job's NDJSON event stream, invoking
// fn per event until the job reaches a terminal state, fn returns an error,
// or ctx ends.
func (c *Client) WatchAdviseEvents(ctx context.Context, id string, fn func(AdviseEvent) error) error {
	return watch(ctx, c, "/v1/advise/"+id+"/events", "advise events "+id, func(ev AdviseEvent) (bool, error) {
		return ev.Job.State.Terminal(), fn(ev)
	})
}

// WaitAdvise blocks until the advise job is terminal, preferring the event
// stream and falling back to polling if streaming fails (e.g. across a
// daemon restart — journaled advises resume on the new process).
func (c *Client) WaitAdvise(ctx context.Context, id string) (AdviseStatus, error) {
	return wait(ctx, c, func(st AdviseStatus) bool { return st.State.Terminal() },
		func(keep func(AdviseStatus)) error {
			return c.WatchAdviseEvents(ctx, id, func(ev AdviseEvent) error { keep(ev.Job); return nil })
		},
		func() (AdviseStatus, error) { return c.GetAdvise(ctx, id) })
}

// RunAdvise submits an advise spec and waits for its plan and verification —
// the one-call remote analogue of advisor.Runner.Run.
func (c *Client) RunAdvise(ctx context.Context, spec AdviseSpec) (AdviseStatus, error) {
	st, err := c.SubmitAdvise(ctx, spec)
	if err != nil {
		return st, err
	}
	return c.WaitAdvise(ctx, st.ID)
}
