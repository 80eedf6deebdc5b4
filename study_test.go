package gpurel

import (
	"testing"

	"gpurel/internal/faults"
	"gpurel/internal/gpu"
	"gpurel/internal/softfi"
)

// TestPipelineVA runs small AVF and SVF campaigns on vectorAdd end to end.
func TestPipelineVA(t *testing.T) {
	s := NewStudy(40, 1)
	avf, structs, err := s.KernelAVF("VA", "K1", false)
	if err != nil {
		t.Fatal(err)
	}
	if avf.Total() < 0 || avf.Total() > 1 {
		t.Errorf("AVF out of range: %v", avf.Total())
	}
	if len(structs) != int(gpu.NumStructures) {
		t.Fatalf("expected %d structures, got %d", gpu.NumStructures, len(structs))
	}
	svf, err := s.KernelSVF("VA", "K1", false)
	if err != nil {
		t.Fatal(err)
	}
	if svf.Total() <= 0 {
		t.Errorf("SVF should be positive for VA (most register flips corrupt the sum), got %v", svf.Total())
	}
	// The paper's scale separation: full-system AVF well below SVF.
	if avf.Total() >= svf.Total() {
		t.Errorf("expected AVF (%v) < SVF (%v): hardware masking must dominate", avf.Total(), svf.Total())
	}
}

// TestTMREliminatesSDCsAtSVF reproduces the §IV headline at tiny scale: under
// software-level evaluation, TMR removes (nearly all) SDCs.
func TestTMREliminatesSDCsAtSVF(t *testing.T) {
	s := NewStudy(60, 2)
	plain, err := s.SoftTally("VA", "K1", softfi.SVF, false)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := s.SoftTally("VA", "K1", softfi.SVF, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counts[faults.SDC] == 0 {
		t.Skip("plain campaign produced no SDCs at this sample size")
	}
	if hard.Pct(faults.SDC) >= plain.Pct(faults.SDC) {
		t.Errorf("TMR did not reduce SVF SDCs: plain %.2f, hardened %.2f",
			plain.Pct(faults.SDC), hard.Pct(faults.SDC))
	}
}

// TestSoftCheckpointCounts: soft campaigns report their fork-and-join work
// through SoftCheckpointCounts and leave the cycle simulator's ledger alone.
func TestSoftCheckpointCounts(t *testing.T) {
	s := NewStudy(40, 3)
	if c := s.SoftCheckpointCounts(); c != (softfi.CheckpointCounts{}) {
		t.Fatalf("empty study: %+v", c)
	}
	for _, hardened := range []bool{false, true} {
		if _, err := s.SoftTally("VA", "K1", softfi.SVF, hardened); err != nil {
			t.Fatal(err)
		}
	}
	c := s.SoftCheckpointCounts()
	// VA is 8 CTAs; TMR triples them and adds the voter's 16
	if c.Boundaries != 8+40 || c.DeltaBytes == 0 {
		t.Errorf("inventory: %+v", c)
	}
	if c.Forks == 0 || c.Forks > 80 || c.ForkInstrsSkipped == 0 || c.Joins == 0 || c.JoinInstrsSkipped == 0 {
		t.Errorf("80 injections over 8 and 40 CTAs must fork and join: %+v", c)
	}
	if m := s.CheckpointCounts(); m.ForkResumes != 0 || m.ConvergeHits != 0 || m.Snapshots != 0 {
		t.Errorf("soft campaigns moved the micro ledger: %+v", m)
	}
}

// TestDeterministicCampaigns: identical seeds must reproduce tallies.
func TestDeterministicCampaigns(t *testing.T) {
	a := NewStudy(25, 7)
	b := NewStudy(25, 7)
	ta, _, err := a.MicroTally("SCP", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := b.MicroTally("SCP", "K1", gpu.RF, false)
	if err != nil {
		t.Fatal(err)
	}
	if ta != tb {
		t.Errorf("campaign not deterministic: %+v vs %+v", ta, tb)
	}
}
