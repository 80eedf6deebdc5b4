package service

import (
	"fmt"

	"gpurel/internal/campaign"
)

// The work ledger: every job owns a normalized list of pending (unclaimed)
// run-ranges and a list of claimed (in-flight) ranges; completed work folds
// into the job's prefix merger. Local scheduler lanes and remote fleet
// leases claim and report through the same three operations, so a campaign
// splits across any mix of the two and still tallies bit-identically —
// run i always draws from rand.NewSource(Seed+i) regardless of who runs it.

// WorkAssignment is one claimed run-range: the executable unit handed to a
// scheduler lane chunk or packaged into a fleet lease.
type WorkAssignment struct {
	JobID string  `json:"job_id"`
	Spec  JobSpec `json:"spec"`
	From  int     `json:"from"`
	To    int     `json:"to"`
}

// Runs is the assignment size.
func (w WorkAssignment) Runs() int { return w.To - w.From }

// claimLocked pops up to max runs off the front of j's pending list
// (j.mu held). Adaptive jobs never hand out a range crossing a batch
// boundary: the stop rule is only evaluated on whole batches, and boundary
// clamping keeps the evaluated prefixes identical to sequential execution no
// matter how the work is distributed.
func (s *Scheduler) claimLocked(j *job, max int) (Range, bool) {
	if max <= 0 || len(j.pending) == 0 || j.state.Terminal() {
		return Range{}, false
	}
	r := j.pending[0]
	to := r.From + max
	if to > r.To {
		to = r.To
	}
	if j.spec.adaptive() {
		batch := j.spec.batchSize()
		if end := (r.From/batch + 1) * batch; end < to {
			to = end
		}
	}
	claim := Range{From: r.From, To: to}
	j.pending = subtractRanges(j.pending, claim)
	j.claimed = addRange(j.claimed, claim)
	return claim, true
}

// ClaimWork (fairshare.go) hands out runs from the weighted fair-share
// winner; ReportWork below merges them back.

// ReportWork merges one completed run-range into its job. The merge is
// idempotent by range: duplicated execution (an expired lease re-run
// elsewhere whose original report arrives late) is dropped — merged reports
// false — so every run is counted exactly once. The returned status tells
// the reporter whether the job still wants work (terminal states mean:
// abandon the rest of your lease).
func (s *Scheduler) ReportWork(jobID string, from, to int, tl campaign.Tally) (st JobStatus, merged bool, err error) {
	j, ok := s.campaignJob(jobID)
	if !ok {
		return JobStatus{}, false, fmt.Errorf("no such job %q", jobID)
	}
	st, merged = s.report(j, from, to, tl, 0, 0)
	return st, merged, nil
}

// report is the shared merge path for lanes (with checkpoint-stat deltas)
// and remote reports (without).
func (s *Scheduler) report(j *job, from, to int, tl campaign.Tally, dForks, dConverges int64) (JobStatus, bool) {
	j.mu.Lock()
	defer func() {
		j.mu.Unlock()
		s.dirty.Store(true)
	}()
	j.forks += dForks
	j.converges += dConverges
	if j.state.Terminal() {
		return j.snapshotLocked(), false
	}
	r := Range{From: from, To: to}
	accepted := j.merger.Offer(campaign.Partial{From: from, To: to, Tally: tl})
	// Whether merged or dropped as a duplicate, these runs are covered:
	// nobody should execute them again.
	j.claimed = subtractRanges(j.claimed, r)
	j.pending = subtractRanges(j.pending, r)
	if accepted {
		s.metrics.addTally(tl)
	}

	// Advance the contiguous prefix one partial at a time, evaluating the
	// adaptive stop rule at every batch boundary in arrival-independent
	// order — exactly the prefixes a sequential run would have evaluated.
	adaptive := j.spec.adaptive()
	batch := j.spec.batchSize()
	pol := j.spec.policy()
	for {
		end, tally, ok := j.merger.Advance()
		if !ok {
			break
		}
		if adaptive && end < j.spec.Runs && end%batch == 0 && pol.StopSatisfied(tally) {
			j.early = true
			saved := j.spec.Runs - end
			j.merger.DropStash()
			j.pending = nil
			j.claimed = nil
			s.finishLocked(j, StateDone, "")
			s.metrics.runsSaved.Add(int64(saved))
			if s.cfg.Counters != nil {
				s.cfg.Counters.Saved.Add(int64(saved))
			}
			return j.snapshotLocked(), accepted
		}
	}
	if j.merger.To() >= j.spec.Runs {
		s.finishLocked(j, StateDone, "")
	} else if accepted {
		j.publishLocked("progress")
	}
	return j.snapshotLocked(), accepted
}

// ReturnWork puts an unexecuted claimed range back on the pending list — a
// drained worker returning its lease remainder, or the coordinator expiring
// a dead worker's lease. Only runs that are still claimed and not already
// covered by completed work are requeued, which with the coordinator's
// delete-on-expiry makes requeueing exactly-once.
func (s *Scheduler) ReturnWork(jobID string, from, to int) {
	j, ok := s.campaignJob(jobID)
	if !ok {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	give := intersectRanges(j.claimed, Range{From: from, To: to})
	for _, g := range give {
		j.claimed = subtractRanges(j.claimed, g)
		// Don't requeue runs whose tallies already arrived (merged prefix or
		// stashed out-of-order partials).
		back := []Range{g}
		if pre := j.merger.To(); pre > 0 {
			back = subtractRanges(back, Range{From: 0, To: pre})
		}
		for _, sr := range j.merger.StashRanges() {
			back = subtractRanges(back, Range{From: sr[0], To: sr[1]})
		}
		for _, b := range back {
			j.pending = addRange(j.pending, b)
		}
	}
	s.dirty.Store(true)
}
