package service

import (
	"gpurel/internal/campaign"
	"gpurel/internal/journal"
)

// checkpointVersion guards the on-disk format. Bump on incompatible change.
const checkpointVersion = 1

// jobCheckpoint is the durable state of one job: its spec, the normalized
// completed run-ranges, and the tally merged over exactly those ranges.
// Because run i's seed depends only on (Spec.Seed, i), this is everything a
// fresh process needs to finish the job bit-identically.
type jobCheckpoint struct {
	ID           string         `json:"id"`
	Spec         JobSpec        `json:"spec"`
	State        JobState       `json:"state"`
	Done         []Range        `json:"done_ranges,omitempty"`
	Tally        campaign.Tally `json:"tally"`
	EarlyStopped bool           `json:"early_stopped,omitempty"`
	Error        string         `json:"error,omitempty"`
	Created      int64          `json:"created_unix"`
}

// checkpointFile is the scheduler's journal payload (see internal/journal
// for the envelope and the durability discipline).
type checkpointFile struct {
	journal.Header
	Jobs []jobCheckpoint `json:"jobs"`
}
