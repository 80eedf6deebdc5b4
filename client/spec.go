// Wire-type surface of the client package. The daemon's v1 schema lives in
// gpurel/internal/service, which importers outside this module cannot name;
// these aliases re-export the exact types — same decoders, same strict
// unknown-field handling, same JSON — so an external program can build a
// JobSpec with a nested fault{model,stuck,width,lines} group or an advise
// group and get byte-identical wire behaviour to the server's own decode
// path.
package client

import (
	"gpurel/internal/faultmodel"
	"gpurel/internal/service"
)

// Job-spec wire types (POST /v1/jobs). JobSpec carries the nested v1 groups:
// sampling (adaptive stopping), checkpoint (fork-and-join snapshots), fault
// (fault model), plus the harden list for selectively hardened variants —
// or, for a selective-hardening advise, the advise group alone.
type (
	JobSpec      = service.JobSpec
	FaultSpec    = service.FaultSpec
	SamplingSpec = service.SamplingSpec
	SnapshotSpec = service.SnapshotSpec
	AdviseGroup  = service.AdviseGroup
	JobState     = service.JobState
	JobStatus    = service.JobStatus
	Event        = service.Event
)

// Job lifecycle states, shared by campaign jobs and advise jobs.
const (
	StateQueued   = service.StateQueued
	StateRunning  = service.StateRunning
	StateDone     = service.StateDone
	StateFailed   = service.StateFailed
	StateCanceled = service.StateCanceled
)

// Fault-model names for FaultSpec.Model. An empty model string means
// ModelTransient (the legacy single-bit transient flip).
const (
	ModelTransient = faultmodel.ModelTransient
	ModelStuck     = faultmodel.ModelStuck
	ModelMBU       = faultmodel.ModelMBU
	ModelControl   = faultmodel.ModelControl
)
