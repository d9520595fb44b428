// Package costmodel describes the machines the paper evaluates on (Table IV:
// Cori-KNL and Cori-Haswell, Cray Aries interconnect) as α–β communication
// constants plus compute-speed factors. The simulated runs execute real local
// kernels on the host and charge modeled communication; the machine model
// additionally translates host compute time into target-machine compute time
// so experiments like Fig 12 (hyper-threading) and Fig 13 (KNL vs Haswell)
// can compare parameterizations.
package costmodel

import (
	"fmt"

	"repro/internal/mpi"
)

// Machine bundles the communication and computation characteristics of one
// evaluation platform.
type Machine struct {
	// Name identifies the machine in reports.
	Name string
	// AlphaSec is the per-message latency.
	AlphaSec float64
	// BetaSecPerByte is the inverse of per-process injection bandwidth.
	BetaSecPerByte float64
	// ComputeScale multiplies host-measured compute time to approximate the
	// target machine's per-process multithreaded compute speed relative to
	// the host (1.0 = same speed; <1 = target is faster).
	ComputeScale float64
	// CommScale multiplies modeled communication time (e.g. hyper-threading
	// enlarges process grids and slows collectives; Fig 12).
	CommScale float64
}

// Cost returns the α–β constants for the MPI layer.
func (m Machine) Cost() mpi.CostModel {
	return mpi.CostModel{AlphaSec: m.AlphaSec, BetaSecPerByte: m.BetaSecPerByte}
}

// String returns the machine name.
func (m Machine) String() string { return m.Name }

// The machine constants below are calibrated to reproduce the paper's
// regime, not measured on real hardware: Cray Aries MPI latency is a few
// microseconds, and per-process effective bandwidth on KNL is on the order
// of a GB/s once 16-thread processes share a NIC. What matters for the
// figures is the *ratio* of communication to computation and between
// machines, which these constants preserve.

// CoriKNL models a Cori Intel Xeon Phi 7250 node (68 cores, 16 threads per
// MPI process, 1 thread making MPI calls).
func CoriKNL() Machine {
	return Machine{
		Name:           "Cori-KNL",
		AlphaSec:       4e-6,
		BetaSecPerByte: 1.0 / (1.2e9),
		ComputeScale:   1.0,
		CommScale:      1.0,
	}
}

// CoriHaswell models a Cori Intel Xeon E5-2698 node (32 faster cores, 6
// threads per process). The paper (Fig 13) measures computation 2.1× faster
// and communication 1.4× faster than KNL on the same network.
func CoriHaswell() Machine {
	return Machine{
		Name:           "Cori-Haswell",
		AlphaSec:       4e-6 / 1.4,
		BetaSecPerByte: 1.0 / (1.2e9 * 1.4),
		ComputeScale:   1.0 / 2.1,
		CommScale:      1.0,
	}
}

// CoriKNLHyperThreads models KNL with all 4 hardware threads per core in use
// (Fig 12): computation gets faster (more threads per process), while
// communication gets slower because four times as many hardware threads
// contend for the same NIC. The factors follow the paper's measurement
// (computation 231→81 s, communication 147→209 s at l=16).
func CoriKNLHyperThreads() Machine {
	m := CoriKNL()
	m.Name = "Cori-KNL-HT4"
	m.ComputeScale = 81.0 / 231.0
	m.CommScale = 209.0 / 147.0
	return m
}

// LocalHost runs with zero modeled scaling: comm charged by α–β of a fast
// shared-memory machine, compute as measured. Used by quick examples.
func LocalHost() Machine {
	return Machine{
		Name:           "local",
		AlphaSec:       1e-7,
		BetaSecPerByte: 1.0 / 8e9,
		ComputeScale:   1.0,
		CommScale:      1.0,
	}
}

// Scaled returns a copy of the machine with latency and inverse bandwidth
// multiplied by factor.
func (m Machine) Scaled(factor float64) Machine {
	m.AlphaSec *= factor
	m.BetaSecPerByte *= factor
	return m
}

// ScaledBeta returns a copy with only the inverse bandwidth multiplied by
// factor; latency stays physical. The experiment harness uses it to restore
// the paper's communication-to-computation balance: a Cori-KNL process
// computes SpGEMM at roughly 0.6 ns/flop against a 1.2 GB/s injection
// bandwidth, while the Go kernels on a laptop run nearer 10 ns/flop against
// the same modeled constants — an order of magnitude shift in machine
// balance that would otherwise make communication invisible. Scaling β (not
// α) keeps the bandwidth-driven effects the paper studies in proportion
// without letting latency terms, which the paper reports as ~1% of runtime,
// dominate. The per-scale factors live in the experiments package and are
// documented in EXPERIMENTS.md ("Calibration").
func (m Machine) ScaledBeta(factor float64) Machine {
	m.BetaSecPerByte *= factor
	return m
}

// ByName returns a predefined machine.
func ByName(name string) (Machine, error) {
	switch name {
	case "knl", "cori-knl", "Cori-KNL":
		return CoriKNL(), nil
	case "haswell", "cori-haswell", "Cori-Haswell":
		return CoriHaswell(), nil
	case "knl-ht", "Cori-KNL-HT4":
		return CoriKNLHyperThreads(), nil
	case "local":
		return LocalHost(), nil
	}
	return Machine{}, fmt.Errorf("costmodel: unknown machine %q", name)
}

// ApplyScales rewrites a set of per-rank meters so that measured compute and
// modeled comm reflect the machine's scaling factors.
func (m Machine) ApplyScales(meters []*mpi.Meter) {
	for _, mt := range meters {
		mt.ScaleCompute(m.ComputeScale)
		mt.ScaleComm(m.CommScale)
	}
}

// KernelTable is empty and has no methods.
//
// Deprecated: the local kernel and merger are no longer selected by a cost
// table; runs use core.Options.Kernel and Merger (default: the paper's
// sort-free hash kernel and hash merge). The type remains only so existing
// callers keep compiling.
type KernelTable struct{}

// DefaultKernelTable returns an empty table.
//
// Deprecated: see KernelTable.
func DefaultKernelTable() *KernelTable { return &KernelTable{} }
