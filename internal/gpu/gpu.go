// Package gpu holds the chip configuration shared by the microarchitecture
// simulator and the fault-injection frameworks: structure sizes, cache
// geometry, and latency/timing parameters.
//
// The default configuration is a Volta-flavoured GPU scaled down so that
// thousands of statistical fault-injection runs remain tractable. What the
// paper's results depend on is preserved: the register file dominates the
// on-chip storage bit count, shared memory is second, and the caches are
// comparatively small (see DESIGN.md §2).
package gpu

import "fmt"

// Structure identifies one of the five fault-injection target hardware
// structures studied by the paper (§II-B).
type Structure int

// The hardware structures supported by the microarchitecture-level injector.
const (
	RF   Structure = iota // register files
	SMEM                  // shared memory
	L1D                   // L1 data caches
	L1T                   // L1 texture caches
	L2                    // L2 cache
	NumStructures
)

// Structures lists all injectable structures in canonical order.
var Structures = [NumStructures]Structure{RF, SMEM, L1D, L1T, L2}

// Control-state injection sites, beyond the paper's five storage arrays:
// machine state held in flip-flops rather than SRAM data arrays. They are
// injectable by the control-state fault model (internal/faultmodel) but
// carry no storage-bit weight, so they stay out of Structures, chip-AVF
// size weighting and the ECC configuration (flip-flop state is unprotected).
const (
	Sched   Structure = NumStructures + iota // warp-scheduler entries (ready/done)
	Stack                                    // SIMT divergence stack entries (mask/PC/RPC)
	Barrier                                  // CTA barrier arrival state
)

// ControlStructures lists the injectable control-state sites in canonical
// order.
var ControlStructures = [3]Structure{Sched, Stack, Barrier}

// IsControl reports whether s is a control-state site rather than one of the
// five storage arrays.
func (s Structure) IsControl() bool { return s >= Sched && s <= Barrier }

func (s Structure) String() string {
	switch s {
	case RF:
		return "RF"
	case SMEM:
		return "SMEM"
	case L1D:
		return "L1D"
	case L1T:
		return "L1T"
	case L2:
		return "L2"
	case Sched:
		return "SCHED"
	case Stack:
		return "STACK"
	case Barrier:
		return "BARRIER"
	}
	return "?"
}

// ParseStructure maps the name of a hardware structure as String spells it
// ("" = RF), accepting the storage arrays and the control-state sites — the
// one spelling the wire and the CLIs share.
func ParseStructure(name string) (Structure, error) {
	if name == "" {
		return RF, nil
	}
	for _, st := range Structures {
		if st.String() == name {
			return st, nil
		}
	}
	for _, st := range ControlStructures {
		if st.String() == name {
			return st, nil
		}
	}
	return 0, fmt.Errorf("unknown structure %q (want RF|SMEM|L1D|L1T|L2|SCHED|STACK|BARRIER)", name)
}

// Config describes the simulated chip.
type Config struct {
	NumSMs          int
	WarpSize        int
	MaxThreadsPerSM int
	MaxCTAsPerSM    int
	IssuePerCycle   int // instructions issued per SM per cycle

	RFRegsPerSM int // 32-bit register entries per SM
	SmemPerSM   int // bytes per SM

	L1DBytes int // per SM
	L1TBytes int // per SM
	L2Bytes  int
	LineSize int
	L1Ways   int
	L2Ways   int
	L1MSHRs  int
	L2MSHRs  int

	// Latencies in cycles.
	ALULat  int
	SFULat  int
	SMemLat int
	L1Lat   int // L1 hit
	L2Lat   int // L2 hit (from L1 miss)
	DRAMLat int // L2 miss

	// TimeoutFactor multiplies the golden cycle (or instruction) count to
	// form the timeout budget for faulty runs.
	TimeoutFactor int

	// ECC enables SEC-DED protection per structure (§II-A: "most of the
	// on-chip memory structures are protected through error correction
	// codes, but with overhead"). The paper evaluates the unprotected
	// design to locate inherent vulnerability; enabling ECC here supports
	// the protection-strategy ablation: single-bit faults in a protected
	// structure are corrected (masked), double-bit faults are detected but
	// uncorrectable (DUE), wider bursts escape silently.
	ECC [NumStructures]bool
}

// WithECC returns a copy of the configuration with ECC enabled on the given
// structures.
func (c Config) WithECC(structures ...Structure) Config {
	for _, s := range structures {
		c.ECC[s] = true
	}
	return c
}

// Volta returns the default scaled Volta-like configuration.
func Volta() Config {
	return Config{
		NumSMs:          4,
		WarpSize:        32,
		MaxThreadsPerSM: 1024,
		MaxCTAsPerSM:    16,
		IssuePerCycle:   2,

		RFRegsPerSM: 32768, // 128 KiB per SM
		SmemPerSM:   16384, // 16 KiB per SM

		L1DBytes: 8192, // 8 KiB per SM
		L1TBytes: 4096, // 4 KiB per SM
		L2Bytes:  131072,
		LineSize: 64,
		L1Ways:   4,
		L2Ways:   8,
		L1MSHRs:  8,
		L2MSHRs:  32,

		ALULat:  4,
		SFULat:  16,
		SMemLat: 24,
		L1Lat:   32,
		L2Lat:   190,
		DRAMLat: 420,

		TimeoutFactor: 10,
	}
}

// StructBits returns the total size of structure s across the chip, in bits.
// These sizes weight the per-structure AVFs into the full-chip AVF (§II-B).
func (c Config) StructBits(s Structure) int64 {
	switch s {
	case RF:
		return int64(c.NumSMs) * int64(c.RFRegsPerSM) * 32
	case SMEM:
		return int64(c.NumSMs) * int64(c.SmemPerSM) * 8
	case L1D:
		return int64(c.NumSMs) * int64(c.L1DBytes) * 8
	case L1T:
		return int64(c.NumSMs) * int64(c.L1TBytes) * 8
	case L2:
		return int64(c.L2Bytes) * 8
	}
	return 0
}

// TotalBits returns the summed bit count of all injectable structures.
func (c Config) TotalBits() int64 {
	var t int64
	for _, s := range Structures {
		t += c.StructBits(s)
	}
	return t
}
