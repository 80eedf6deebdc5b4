package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"gpurel"
	"gpurel/internal/advisor"
	"gpurel/internal/campaign"
)

// An advise job is a scheduler job whose work is an advisor.Runner loop
// (measure → search → verify) instead of run ranges. Its driver is a
// goroutine under the scheduler's wait group; the job holds no runs, so no
// executor or fleet lease ever claims it. Every campaign the advisor needs
// runs as a child job — an ordinary campaign job that executors and fleet
// leases execute like any other, under the parent's tenant and priority.
// The parent journals the advisor's State after every unit of work; its
// children journal their own prefixes.

// RunPointFunc executes one campaign point and returns its tally — the
// shape of gpurel.Study.RunPoint.
type RunPointFunc func(p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error)

// AdviseBackendFactory builds the measurement backend of one advise job.
// runPoint runs a campaign point as a child job of that advise and waits
// for its tally.
type AdviseBackendFactory func(spec JobSpec, runPoint RunPointFunc) (advisor.Backend, error)

// studyAdviseBackend is the production advise backend: the study stack on a
// gpurel.Study sized by the spec's runs and seed, so equal specs produce
// bit-identical plans across processes, with every campaign point running
// as a child job.
func studyAdviseBackend(spec JobSpec, runPoint RunPointFunc) (advisor.Backend, error) {
	st := gpurel.NewStudy(spec.Runs, spec.Seed)
	st.RunPoint = runPoint
	return &gpurel.StudyBackend{Study: st}, nil
}

// startAdvise launches an advise job's driver. Callers hold s.mu (admit) or
// run before the scheduler is shared (NewScheduler), so the wg.Add never
// races Close.
func (s *Scheduler) startAdvise(j *job) {
	ctx, stop := context.WithCancel(s.ctx)
	j.mu.Lock()
	j.stop = stop
	j.mu.Unlock()
	s.wg.Add(1)
	go s.runAdvise(ctx, stop, j)
}

// runAdvise drives one advise job until it is terminal, or parks it on drain.
func (s *Scheduler) runAdvise(ctx context.Context, stop context.CancelFunc, j *job) {
	defer s.wg.Done()
	defer stop()

	j.mu.Lock()
	if j.state.Terminal() { // canceled before the driver got here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = s.cfg.Now()
	j.publishLocked(string(StateRunning))
	// The runner mutates its State in place between emissions, so it gets a
	// private copy; j.adv only ever holds frozen clones.
	resume := cloneAdvisorState(j.adv)
	spec := j.spec
	j.mu.Unlock()
	s.dirty.Store(true)

	var st *advisor.State
	backend, err := s.cfg.AdviseBackend(spec, func(p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error) {
		return s.runChild(ctx, j, p, opts)
	})
	if err != nil {
		err = fmt.Errorf("backend: %w", err)
	} else {
		r := &advisor.Runner{
			Backend: backend,
			App:     spec.Advise.App,
			Budget:  spec.Advise.Budget,
			Resume:  resume,
			OnState: func(st *advisor.State) {
				cp := cloneAdvisorState(st)
				j.mu.Lock()
				j.adv = cp
				j.publishLocked("progress")
				j.mu.Unlock()
				s.dirty.Store(true)
			},
		}
		st, err = r.Run(ctx)
	}

	j.mu.Lock()
	defer func() {
		j.mu.Unlock()
		s.dirty.Store(true)
	}()
	if st != nil {
		j.adv = st
	}
	var refused *advisor.ErrPlanRefused
	var unattainable *advisor.ErrBudgetUnattainable
	switch {
	case err == nil:
		s.metrics.plansVerified.Add(1)
		s.finishLocked(j, StateDone, "")
	case j.canceled:
		s.finishLocked(j, StateCanceled, "")
	case s.closed.Load():
		// Drain, not a cancel: park the job. The next process resumes it
		// from the last journaled unit — and, by the runner's determinism,
		// to the identical plan.
		j.state = StateQueued
	default:
		if errors.As(err, &refused) || errors.As(err, &unattainable) {
			s.metrics.plansRefused.Add(1)
		}
		s.finishLocked(j, StateFailed, err.Error())
	}
}

// runChild runs one campaign point of the advise job parent as a child job
// and waits for its tally. The child inherits the parent's tenant and
// priority, and its ID derives from the parent's and the rendered point, so
// a resumed advise re-requesting the point attaches to the child the journal
// holds instead of submitting it again. A child is admitted outside
// QueueDepth: each driver waits on one child at a time, so children are
// bounded by the advise jobs. Canceling the parent cancels the child; a
// drain leaves it to be parked by Close.
func (s *Scheduler) runChild(ctx context.Context, parent *job, p gpurel.PointSpec, opts campaign.Options) (campaign.Tally, error) {
	spec := SpecForPoint(p, opts)
	spec.Tenant, spec.Priority = parent.spec.Tenant, parent.spec.Priority
	if err := spec.Validate(); err != nil {
		return campaign.Tally{}, err
	}
	id := childID(parent.id, spec)
	child, err := s.admit(id, spec, false)
	if err != nil {
		return campaign.Tally{}, err
	}

	// Subscribe before the first look so the terminal event cannot slip by.
	events, unsub := child.events.Subscribe()
	defer unsub()
	for {
		if st := child.snapshot(); st.State.Terminal() {
			if st.State != StateDone {
				msg := fmt.Sprintf("child job %s %s", id, st.State)
				if st.Error != "" {
					msg += ": " + st.Error
				}
				return campaign.Tally{}, errors.New(msg)
			}
			return st.Tally, nil
		}
		select {
		case <-events:
		case <-ctx.Done():
			parent.mu.Lock()
			canceled := parent.canceled
			parent.mu.Unlock()
			if canceled {
				s.Cancel(id)
			}
			return campaign.Tally{}, ctx.Err()
		}
	}
}

// childID derives a child job's ID from its parent's ID and its rendered
// spec.
func childID(parent string, spec JobSpec) string {
	data, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("service: marshal child spec: %v", err))
	}
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%s.%016x", parent, h.Sum64())
}

// cloneAdvisorState deep-copies a journaled advisor state (JSON round-trip:
// the type is defined by its wire form, so this is exact).
func cloneAdvisorState(st *advisor.State) *advisor.State {
	if st == nil {
		return nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		panic(fmt.Sprintf("service: marshal advisor state: %v", err))
	}
	var cp advisor.State
	if err := json.Unmarshal(data, &cp); err != nil {
		panic(fmt.Sprintf("service: unmarshal advisor state: %v", err))
	}
	return &cp
}
