package microfi

import (
	"fmt"
	"math/rand"
	"testing"

	"gpurel/internal/device"
	"gpurel/internal/gpu"
	"gpurel/internal/harden"
	"gpurel/internal/kernels"
)

// inventory is what a golden run's snapshot set holds, and what a fixed
// InjectStatic sample against it forked and joined.
type inventory struct {
	snaps, bytes, evicted int64
	forks, joins          int64
}

// checkpointInventoryPins holds, per job, the inventory of the default
// checkpoint spec and of the 256-snapshot grid the dense benchmark builds
// (stride = golden cycles / 256, default budget). The sample of
// inventoryDraws InjectStatic draws per storage structure runs against the
// dense grid, where restores and join compares are most frequent.
var checkpointInventoryPins = map[string][2]inventory{
	"BFS":            {{24, 4441820, 0, 0, 0}, {256, 14358220, 0, 1, 0}},
	"BFS-TMR":        {{24, 8830608, 0, 0, 0}, {256, 32869660, 0, 3, 0}},
	"BackProp":       {{24, 3485056, 0, 0, 0}, {256, 11353712, 0, 7, 1}},
	"BackProp-TMR":   {{24, 7674868, 0, 0, 0}, {258, 27269732, 0, 8, 2}},
	"HotSpot":        {{24, 8907080, 0, 0, 0}, {258, 45016820, 0, 8, 3}},
	"HotSpot-TMR":    {{24, 11638680, 0, 0, 0}, {256, 64714792, 0, 15, 3}},
	"K-Means":        {{24, 2559588, 0, 0, 0}, {258, 8361660, 0, 14, 1}},
	"K-Means-TMR":    {{24, 4964656, 0, 0, 0}, {258, 17127348, 0, 17, 1}},
	"LUD":            {{24, 1698642, 0, 0, 0}, {256, 7559554, 0, 28, 0}},
	"LUD-TMR":        {{24, 2917956, 0, 0, 0}, {256, 15497618, 0, 33, 0}},
	"NW":             {{24, 1783806, 0, 0, 0}, {256, 7103074, 0, 17, 0}},
	"NW-TMR":         {{24, 3213694, 0, 0, 0}, {256, 14001612, 0, 18, 2}},
	"PathFinder":     {{24, 3122816, 0, 0, 0}, {259, 10524672, 0, 6, 2}},
	"PathFinder-TMR": {{24, 6767708, 0, 0, 0}, {257, 20672692, 0, 8, 4}},
	"SCP":            {{24, 2696764, 0, 0, 0}, {260, 7017820, 0, 11, 0}},
	"SCP-TMR":        {{24, 5733584, 0, 0, 0}, {256, 13778276, 0, 11, 0}},
	"SRADv1":         {{24, 6517872, 0, 0, 0}, {257, 19371204, 0, 13, 1}},
	"SRADv1-TMR":     {{24, 11952420, 0, 0, 0}, {256, 42339292, 0, 13, 0}},
	"SRADv2":         {{24, 10227336, 0, 0, 0}, {257, 27262672, 0, 9, 0}},
	"SRADv2-TMR":     {{24, 14358352, 0, 0, 0}, {257, 56680396, 0, 22, 1}},
	"VA":             {{24, 2138496, 0, 0, 0}, {265, 7786688, 0, 7, 0}},
	"VA-TMR":         {{24, 4758184, 0, 0, 0}, {260, 13464936, 0, 15, 0}},
}

const inventoryDraws = 40

// String formats the inventory as its literal in checkpointInventoryPins.
func (v inventory) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d}", v.snaps, v.bytes, v.evicted, v.forks, v.joins)
}

// TestCheckpointInventoryPinned pins the snapshot accounting of every
// shipped application, plain and under TMR: retained snapshots, retained
// bytes and evictions, and the fork resumes and converge joins of a fixed
// pruned sample. Retained bytes drive stride widening and eviction, so a
// change in what a snapshot counts moves fork and join counts (and heap)
// even while every tally holds. When the pins are meant to move, the
// failure messages print each job's new literal.
func TestCheckpointInventoryPinned(t *testing.T) {
	cfg := gpu.Volta()
	for _, app := range kernels.All() {
		for _, tmr := range []bool{false, true} {
			name := app.Name
			if tmr {
				name += "-TMR"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				job := app.Build()
				if tmr {
					job = harden.TMR(job)
				}
				got := jobInventory(t, job, cfg)
				if want := checkpointInventoryPins[name]; got != want {
					t.Errorf("inventory (default, dense) {%s, %s}, pinned {%s, %s}", got[0], got[1], want[0], want[1])
				}
			})
		}
	}
}

// jobInventory builds the job's two checkpointed goldens and draws the
// sample against the dense one.
func jobInventory(t *testing.T, job *device.Job, cfg gpu.Config) [2]inventory {
	t.Helper()
	probe, err := Golden(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	si, err := TraceStatic(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out [2]inventory
	for i, spec := range []CheckpointSpec{DefaultCheckpoint, {Stride: max(1, probe.Res.Cycles/256), Converge: true}} {
		g, err := GoldenCheckpointed(job, cfg, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range gpu.Structures {
			for seed := int64(0); i == 1 && seed < inventoryDraws; seed++ {
				InjectStatic(job, g, si, Target{Structure: st}, rand.New(rand.NewSource(seed)))
			}
		}
		c := g.CheckpointCounts()
		out[i] = inventory{c.Snapshots, c.SnapshotBytes, c.Evictions, c.ForkResumes, c.ConvergeHits}
	}
	return out
}
