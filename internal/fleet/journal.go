package fleet

import (
	"sort"
	"time"

	"gpurel/internal/journal"
	"gpurel/internal/service"
)

// The coordinator journal: the lease ledger and worker registry persisted
// through internal/journal like the scheduler's job checkpoint, so a
// coordinator crash mid-campaign loses no accounting. On restart the
// journal's live leases are re-pinned in the scheduler ledger via
// Backlog.ReclaimWork — the runs a surviving worker still holds are not
// handed out twice — and given a fresh TTL of grace to report; leases whose
// workers died with the coordinator simply expire and requeue. Deterministic
// seeding (run i draws from rand.NewSource(Seed+i)) makes every recovery
// path tally bit-identically to an uninterrupted run.

// journalVersion guards the on-disk format. Bump on incompatible change.
const journalVersion = 1

// leaseRecord is the durable form of one outstanding lease. The deadline is
// informational: restore re-arms every lease at now+TTL rather than
// resuming the old countdown, since journal age is unknowable across a
// crash.
type leaseRecord struct {
	ID           string `json:"id"`
	JobID        string `json:"job_id"`
	Worker       string `json:"worker"`
	From         int    `json:"from"`
	To           int    `json:"to"`
	DeadlineUnix int64  `json:"deadline_unix"`
}

// workerRecord is the durable form of one registry entry. Health is not
// journaled — it is derived from heartbeat history, and a restarted
// coordinator re-learns it from traffic.
type workerRecord struct {
	Name           string             `json:"name"`
	Caps           service.WorkerCaps `json:"caps"`
	Registered     bool               `json:"registered"`
	Draining       bool               `json:"draining,omitempty"`
	RunsDone       int64              `json:"runs_done,omitempty"`
	Expired        int64              `json:"expired,omitempty"`
	RegisteredUnix int64              `json:"registered_unix,omitempty"`
	LastSeenUnix   int64              `json:"last_seen_unix,omitempty"`
}

// journalFile is the coordinator's journal payload.
type journalFile struct {
	journal.Header
	Leases  []leaseRecord      `json:"leases"`
	Workers []workerRecord     `json:"workers"`
	Stats   service.LeaseStats `json:"stats"`
}

// Flush writes the journal now (no-op without a JournalPath).
func (c *Coordinator) Flush() error {
	if c.cfg.JournalPath == "" {
		return nil
	}
	now := c.cfg.Now()
	c.mu.Lock()
	jf := journalFile{Stats: c.stats}
	for _, l := range c.leases { //relint:allow map-order: sorted immediately below
		jf.Leases = append(jf.Leases, leaseRecord{
			ID: l.id, JobID: l.jobID, Worker: l.worker,
			From: l.from, To: l.to, DeadlineUnix: l.deadline.Unix(),
		})
	}
	for _, e := range c.workers { //relint:allow map-order: sorted immediately below
		wr := workerRecord{
			Name: e.spec.Name, Caps: e.spec.Caps,
			Registered: e.registered, Draining: e.draining,
			RunsDone: e.runsDone, Expired: e.expired,
		}
		if !e.registeredAt.IsZero() {
			wr.RegisteredUnix = e.registeredAt.Unix()
		}
		if !e.lastSeen.IsZero() {
			wr.LastSeenUnix = e.lastSeen.Unix()
		}
		jf.Workers = append(jf.Workers, wr)
	}
	c.mu.Unlock()
	sort.Slice(jf.Leases, func(i, k int) bool { return jf.Leases[i].ID < jf.Leases[k].ID })
	sort.Slice(jf.Workers, func(i, k int) bool { return jf.Workers[i].Name < jf.Workers[k].Name })
	return journal.Save(c.cfg.JournalPath, journalVersion, now.Unix(), &jf)
}

// restore rebuilds the registry and lease table from a journal (called from
// NewCoordinator before the loops start, so no locking). Live leases are
// re-pinned in the backlog and re-armed at now+TTL; leases whose job is gone
// or terminal are dropped — the scheduler's own journal already settled
// them.
func (c *Coordinator) restore(jf *journalFile, now time.Time) {
	c.stats = jf.Stats
	for _, wr := range jf.Workers {
		e := &workerEntry{
			spec:       service.WorkerSpec{Name: wr.Name, Caps: wr.Caps},
			registered: wr.Registered,
			draining:   wr.Draining,
			runsDone:   wr.RunsDone,
			expired:    wr.Expired,
		}
		if wr.RegisteredUnix != 0 {
			e.registeredAt = time.Unix(wr.RegisteredUnix, 0)
		}
		if wr.LastSeenUnix != 0 {
			e.lastSeen = time.Unix(wr.LastSeenUnix, 0)
		}
		c.workers[wr.Name] = e
	}
	for _, lr := range jf.Leases {
		if !c.backlog.ReclaimWork(lr.JobID, lr.From, lr.To) {
			continue
		}
		c.leases[lr.ID] = &lease{
			id: lr.ID, jobID: lr.JobID, worker: lr.Worker,
			from: lr.From, to: lr.To,
			deadline: now.Add(c.cfg.LeaseTTL),
		}
	}
}
