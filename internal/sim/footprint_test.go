package sim

import (
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
)

// fullImage returns a copy of job whose device image is allocated to the
// end of its capacity, so its footprint copy is the whole image. A one-copy
// Replicate is a full-capacity copy with the same layout that can still
// allocate.
func fullImage(job *device.Job) *device.Job {
	full := *job
	full.Mem, _ = job.Mem.Replicate(1, job.Mem.Size()-int(job.Mem.Used()+255)&^255)
	full.Mem.Alloc("rest", full.Mem.Size()-int(full.Mem.Used())-256)
	return &full
}

// midLineJob is addOne over 513 words: its last allocation ends 4 bytes into
// a cache line, and the last CTA stores to that line, so L2 write-allocates
// a line that reaches past the allocation high-water mark.
func midLineJob(t *testing.T, lineSize int) *device.Job {
	const n = 513
	job, _, out := buildJob(n, addOne(n), 5, 128)
	end := out + 4*n
	if end != job.Mem.Used() || end%uint32(lineSize) == 0 {
		t.Fatalf("high-water mark 0x%x must end mid-line", job.Mem.Used())
	}
	return job
}

// TestFootprintMatchesFull is the cycle-level twin of funcsim's
// TestTrimmedMemoryMatchesFull: a run on the footprint copy of a job's image
// gives the Result of a run on the full image — output, cycles, spans,
// every per-kernel statistic including the cache counters and DRAM bytes —
// fresh and through a RunPool, for the 11 apps plain and TMR-hardened and a
// job whose last line straddles the high-water mark.
func TestFootprintMatchesFull(t *testing.T) {
	cfg := gpu.Volta()
	jobs := []*device.Job{midLineJob(t, cfg.LineSize)}
	for _, app := range kernels.All() {
		jobs = append(jobs, app.Build(), harden.TMR(app.Build()))
	}
	pool := NewRunPool()
	for _, job := range jobs {
		full := fullImage(job)
		if full.Mem.Footprint() != full.Mem.Size() {
			t.Fatalf("%s: padded image has a %d-byte footprint of %d", job.Name, full.Mem.Footprint(), full.Mem.Size())
		}
		fp := job.Mem.Footprint()
		if fp%cfg.LineSize != 0 || fp < int(job.Mem.Used()) || fp > job.Mem.Size() {
			t.Fatalf("%s: footprint %d for a mark of %d in %d bytes", job.Name, fp, job.Mem.Used(), job.Mem.Size())
		}
		if job.Mem.Size() == kernels.MemCapacity && fp*32 > job.Mem.Size() {
			t.Errorf("%s: footprint %d of %d bytes: trimming is no longer worth testing here", job.Name, fp, job.Mem.Size())
		}
		var size int
		probe := func(m *Machine) { size = m.Mem.Size() }
		want := Run(full, cfg, Options{})
		if want.Err != nil || want.TimedOut {
			t.Fatalf("%s: full-image run failed: %v timeout=%v", job.Name, want.Err, want.TimedOut)
		}
		got := Run(job, cfg, Options{AtCycle: 1, OnCycle: probe})
		if size != fp {
			t.Errorf("%s: the run's device memory holds %d bytes, want the footprint %d", job.Name, size, fp)
		}
		resultsEqual(t, job.Name, got, want)
		for i := 0; i < 2; i++ {
			resultsEqual(t, job.Name+" pooled", Run(job, cfg, Options{Pool: pool}), want)
		}
	}
}
