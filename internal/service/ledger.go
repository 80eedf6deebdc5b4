package service

import (
	"fmt"

	"gpurel/internal/campaign"
)

// The work ledger: every job owns a normalized list of pending (unclaimed)
// run-ranges and a list of claimed (in-flight) ranges; completed work folds
// into the job's prefix merger. In-process executors and remote fleet
// leases claim and report through the same three operations, so a campaign
// splits across any mix of the two and still tallies bit-identically —
// run i always draws from rand.NewSource(Seed+i) regardless of who runs it.
// The job lifecycle lives here once, for every claimer: the first claim
// flips a queued job to running, a claim past the deadline fails the job,
// and a report into a terminal (canceled, failed, done) job is dropped.

// WorkAssignment is one claimed run-range: the executable unit an executor
// runs as one chunk or the coordinator packages into a fleet lease.
type WorkAssignment struct {
	JobID string  `json:"job_id"`
	Spec  JobSpec `json:"spec"`
	From  int     `json:"from"`
	To    int     `json:"to"`
}

// Runs is the assignment size.
func (w WorkAssignment) Runs() int { return w.To - w.From }

// nextChunkLocked is the front of j's pending list, at most max runs
// (j.mu held). Adaptive jobs never hand out a range crossing a batch
// boundary: the stop rule is only evaluated on whole batches, and boundary
// clamping keeps the evaluated prefixes identical to sequential execution no
// matter how the work is distributed.
func (j *job) nextChunkLocked(max int) (Range, bool) {
	if max <= 0 || len(j.pending) == 0 {
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
	return Range{From: r.From, To: to}, true
}

// claimLocked moves the pending part of r to the claimed set and reports
// whether any run moved (j.mu held). A job past its deadline fails instead;
// the first claim flips a queued job to running.
func (s *Scheduler) claimLocked(j *job, r Range) bool {
	if j.state.Terminal() {
		return false
	}
	if !j.due.IsZero() && s.cfg.Now().After(j.due) {
		s.finishLocked(j, StateFailed, fmt.Sprintf("deadline exceeded (%gs)", j.spec.Deadline))
		return false
	}
	got := intersectRanges(j.pending, r)
	for _, g := range got {
		j.pending = subtractRanges(j.pending, g)
		j.claimed = addRange(j.claimed, g)
	}
	if len(got) > 0 && j.state == StateQueued {
		s.leaveQueueLocked(j)
		j.state = StateRunning
		j.started = s.cfg.Now()
		j.publishLocked(string(StateRunning))
	}
	s.dirty.Store(true)
	return len(got) > 0
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

// report is the shared merge path for executors (with checkpoint-stat
// deltas) and remote reports (without).
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
	if accepted {
		// These runs are covered: nobody should execute them again.
		j.claimed = subtractRanges(j.claimed, r)
		j.pending = subtractRanges(j.pending, r)
		s.metrics.addTally(tl)
	} else {
		// A duplicate overlaps completed work, which may cover only part
		// of it: the reporter is done with these runs, so the rest goes
		// back to pending.
		s.requeueLocked(j, r)
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
// delete-on-expiry makes requeueing exactly-once. Requeued runs wake an idle
// executor.
func (s *Scheduler) ReturnWork(jobID string, from, to int) {
	j, ok := s.campaignJob(jobID)
	if !ok {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		s.requeueLocked(j, Range{From: from, To: to})
	}
}

// requeueLocked moves the claimed runs of r that no merged or stashed tally
// covers back to pending, waking an idle executor (j.mu held).
func (s *Scheduler) requeueLocked(j *job, r Range) {
	for _, g := range intersectRanges(j.claimed, r) {
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
			s.signal()
		}
	}
	s.dirty.Store(true)
}
