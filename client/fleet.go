package client

import (
	"context"
	"errors"
	"net/http"

	"gpurel/internal/service"
)

// Fleet control-plane wire types (POST /v1/workers, GET /v1/fleet) —
// aliases of the server's own schema, like JobSpec/AdviseGroup in spec.go.
type (
	WorkerCaps   = service.WorkerCaps
	WorkerSpec   = service.WorkerSpec
	WorkerHealth = service.WorkerHealth
	WorkerStatus = service.WorkerStatus
	TenantStatus = service.TenantStatus
	LeaseStats   = service.LeaseStats
	FleetStatus  = service.FleetStatus
	LeaseRequest = service.LeaseRequest
	Lease        = service.Lease
	LeaseReport  = service.LeaseReport
	LeaseAck     = service.LeaseAck
)

// Worker health states as derived by the coordinator's registry.
const (
	HealthAvailable = service.HealthAvailable
	HealthBusy      = service.HealthBusy
	HealthDegraded  = service.HealthDegraded
	HealthDraining  = service.HealthDraining
)

// RegisterWorker announces a worker and its capability report to the
// coordinator's registry. Re-registration under the same name updates the
// caps and clears a draining mark.
func (c *Client) RegisterWorker(ctx context.Context, spec service.WorkerSpec) (service.WorkerStatus, error) {
	var st service.WorkerStatus
	_, err := c.do(ctx, http.MethodPost, "/v1/workers", spec, &st)
	return st, err
}

// ListWorkers fetches the registry, sorted by worker name.
func (c *Client) ListWorkers(ctx context.Context) ([]service.WorkerStatus, error) {
	var out []service.WorkerStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/workers", nil, &out)
	return out, err
}

// GetWorker fetches one registry entry.
func (c *Client) GetWorker(ctx context.Context, name string) (service.WorkerStatus, error) {
	var st service.WorkerStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/workers/"+name, nil, &st)
	return st, err
}

// DrainWorker marks a worker draining: the coordinator grants it no further
// leases until it re-registers.
func (c *Client) DrainWorker(ctx context.Context, name string) (service.WorkerStatus, error) {
	var st service.WorkerStatus
	_, err := c.do(ctx, http.MethodDelete, "/v1/workers/"+name, nil, &st)
	return st, err
}

// FleetStatus fetches the control-plane summary: workers with derived
// health, per-tenant accounting, and the lease counters.
func (c *Client) FleetStatus(ctx context.Context) (service.FleetStatus, error) {
	var fs service.FleetStatus
	_, err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &fs)
	return fs, err
}

// WatchFleet consumes the NDJSON fleet-status stream, invoking fn per
// snapshot (one immediately, then one per control-plane change) until fn
// returns an error, the stream ends, or ctx ends.
func (c *Client) WatchFleet(ctx context.Context, fn func(service.FleetStatus) error) error {
	err := watch(ctx, c, "/v1/fleet/events", "fleet events", func(fs service.FleetStatus) (bool, error) {
		return false, fn(fs)
	})
	if errors.Is(err, errStreamEnded) {
		return nil // the fleet stream has no terminal event; the coordinator stopping ends it
	}
	return err
}
