package service

import (
	"bytes"
	"encoding/json"
	"fmt"

	"gpurel/internal/campaign"
)

// Lease-protocol wire types (v1). The types live here — not in
// internal/fleet — so the client package and the fleet package share one
// schema without an import cycle through the service.
//
// Protocol summary (served by fleet.Coordinator, mounted on the /v1 mux):
//
//	POST   /v1/leases                 LeaseRequest -> 200 Lease | 204 no work
//	POST   /v1/leases/{id}/report     LeaseReport  -> 200 LeaseAck | 410 gone
//	POST   /v1/leases/{id}/heartbeat  -> 204 | 410 gone
//	DELETE /v1/leases/{id}            return unexecuted remainder -> 204
//
// A lease is a claimed run-range with a heartbeat deadline. Reports cover
// prefix sub-ranges of the lease and double as heartbeats; the coordinator
// shrinks the remainder as reports land. A lease whose deadline passes is
// expired: its remainder is requeued exactly once (the lease is deleted, so
// a second expiry cannot happen), and any late report from the original
// worker merges idempotently by run-range — deterministic seeding makes the
// re-run bit-identical, so double execution can never double-count.
//
// The v1 schema nests every message under an envelope key — {"lease":{...}}
// for requests and grants, {"report":{...}} for reports, {"ack":{...}} for
// acknowledgements — matching the job spec's grouped style. The envelope is
// mandatory: a bare body is rejected like any other unknown field.

// encodeEnvelope marshals body nested under key.
func encodeEnvelope(key string, body any) ([]byte, error) {
	return json.Marshal(map[string]any{key: body})
}

// decodeEnvelope decodes the object nested under key into body. strict is
// for requests, where any other field — at either level — is an error;
// responses stay lenient so an older worker tolerates a newer coordinator.
func decodeEnvelope(data []byte, key string, body any, strict bool) error {
	var env map[string]json.RawMessage
	if err := json.Unmarshal(data, &env); err != nil {
		return err
	}
	raw, ok := env[key]
	if !ok {
		return fmt.Errorf("message must nest its fields under %q", key)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if strict {
		if len(env) != 1 {
			return fmt.Errorf("message has fields outside the %q envelope", key)
		}
		dec.DisallowUnknownFields()
	}
	return dec.Decode(body)
}

// LeaseRequest asks the coordinator for a run-range to execute. v1 wire
// form nests it under "lease":
//
//	{"lease":{"worker":"w1","max_runs":256,"runs_per_sec":42.5}}
type LeaseRequest struct {
	// Worker identifies the requester in the registry, metrics and logs.
	Worker string `json:"worker"`
	// MaxRuns caps the granted range (0 = coordinator default).
	MaxRuns int `json:"max_runs,omitempty"`
	// RunsPerSec is the worker's current measured throughput (its live
	// chunk timings). The coordinator folds it into the registry's
	// capability record and sizes the grant from it; 0 = unknown, as before
	// the worker's first chunk.
	RunsPerSec float64 `json:"runs_per_sec,omitempty"`
}

// The *Body types mirror their message without its methods, so the custom
// Marshal/Unmarshal cannot recurse.
type (
	leaseRequestBody LeaseRequest
	leaseBody        Lease
	leaseReportBody  LeaseReport
	leaseAckBody     LeaseAck
)

// UnmarshalJSON decodes the v1 envelope, rejecting unknown fields.
func (lr *LeaseRequest) UnmarshalJSON(data []byte) error {
	return decodeEnvelope(data, "lease", (*leaseRequestBody)(lr), true)
}

// MarshalJSON emits the v1 envelope.
func (lr LeaseRequest) MarshalJSON() ([]byte, error) {
	return encodeEnvelope("lease", leaseRequestBody(lr))
}

// Validate rejects malformed lease requests.
func (lr LeaseRequest) Validate() error {
	if lr.MaxRuns < 0 {
		return fmt.Errorf("lease.max_runs must be non-negative, got %d", lr.MaxRuns)
	}
	if lr.RunsPerSec < 0 {
		return fmt.Errorf("lease.runs_per_sec must be non-negative, got %g", lr.RunsPerSec)
	}
	return nil
}

// Lease is a granted run-range with everything a worker needs to execute it:
// the job's full spec (the worker resolves its own experiment from it) and
// the half-open run interval. The worker must report or heartbeat before
// TTLSec elapses or the coordinator returns the remainder to pending. On
// the wire it is nested under "lease" (symmetric with the request envelope).
type Lease struct {
	ID     string  `json:"id"`
	JobID  string  `json:"job_id"`
	Spec   JobSpec `json:"spec"`
	From   int     `json:"from"`
	To     int     `json:"to"`
	TTLSec float64 `json:"ttl_sec"`
}

// MarshalJSON emits the v1 envelope.
func (l Lease) MarshalJSON() ([]byte, error) { return encodeEnvelope("lease", leaseBody(l)) }

// UnmarshalJSON decodes the v1 envelope.
func (l *Lease) UnmarshalJSON(data []byte) error {
	return decodeEnvelope(data, "lease", (*leaseBody)(l), false)
}

// LeaseReport carries the tally of one completed prefix sub-range of the
// lease. Done marks the final report of the lease. v1 wire form nests it
// under "report":
//
//	{"report":{"worker":"w1","from":0,"to":100,"tally":{...},"done":false}}
type LeaseReport struct {
	Worker string         `json:"worker"`
	From   int            `json:"from"`
	To     int            `json:"to"`
	Tally  campaign.Tally `json:"tally"`
	Done   bool           `json:"done,omitempty"`
}

// UnmarshalJSON decodes the v1 envelope, rejecting unknown fields.
func (rep *LeaseReport) UnmarshalJSON(data []byte) error {
	return decodeEnvelope(data, "report", (*leaseReportBody)(rep), true)
}

// MarshalJSON emits the v1 envelope.
func (rep LeaseReport) MarshalJSON() ([]byte, error) {
	return encodeEnvelope("report", leaseReportBody(rep))
}

// LeaseAck answers a report. On the wire it is nested under "ack".
type LeaseAck struct {
	// Accepted is false when the runs were already covered (idempotent
	// duplicate) — harmless, the worker continues.
	Accepted bool `json:"accepted"`
	// Canceled tells the worker to abandon the rest of this lease: the job
	// reached a terminal state (canceled, failed, or adaptively
	// early-stopped).
	Canceled bool `json:"canceled,omitempty"`
	// TTLSec refreshes the lease deadline.
	TTLSec float64 `json:"ttl_sec,omitempty"`
}

// MarshalJSON emits the v1 envelope.
func (a LeaseAck) MarshalJSON() ([]byte, error) { return encodeEnvelope("ack", leaseAckBody(a)) }

// UnmarshalJSON decodes the v1 envelope.
func (a *LeaseAck) UnmarshalJSON(data []byte) error {
	return decodeEnvelope(data, "ack", (*leaseAckBody)(a), false)
}
