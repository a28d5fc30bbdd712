package accel

import (
	"nvwa/internal/coordinator"
	"nvwa/internal/mem"
)

// MergeAcc is the zero-alloc reduction over per-shard Reports: Reset,
// Add each shard report, then Merged. Every reduction is exact and
// order-independent — sums, maxima, and cycle-weighted means whose
// numerators and denominators are accumulated separately — so the
// merged Report is identical for any shard ordering and any worker
// count. The vector scratch (utilization series, per-class counters)
// is sized lazily on the first Add and retained across Reset, so the
// steady-state Add path performs no allocations (pinned by tests and
// the perf guardrail).
//
// Merge semantics per Report field:
//   - Reads, TotalHits, Switches, AllocStats, HBM: exact sums.
//   - Cycles: max over shards — the scale-out makespan (all chips
//     start at cycle 0 and run concurrently).
//   - ThroughputReadsPerSec: Σreads over the makespan — the aggregate
//     system throughput.
//   - SUUtil, EUUtil, PerClassEUUtil, SUSeries, EUSeries:
//     cycle-weighted means (capacity × time weighting: every shard
//     has the same unit counts, so weighting by shard cycles weights
//     by unit-cycles of capacity). A shard that finishes early
//     contributes idle capacity only for the cycles it actually ran —
//     its chip is off afterwards, matching the replicated-domain
//     reading of the paper's Coordinator.
//   - SUUtilMakespan, EUUtilMakespan: the same busy unit-cycles
//     normalized by S × makespan — the cluster-level view in which an
//     early-drained chip idles (rather than powers off) until the
//     slowest shard finishes. The cycle-weighted figures understate
//     the cost of imbalance (idle tails simply leave the denominator);
//     these do not, which is why the scale-out balance floor guards
//     them.
//   - EUPEUtil: task-weighted mean (weighted by TotalHits), mirroring
//     the per-task weighting inside System.report.
//   - Traceback: exact sums — cycles, spills, and spill read-out
//     cycles are per-task counts with no normalization.
//   - Energy: joules sum; Seconds spans the makespan; PerReadJ and
//     AvgPowerW re-derive from the sums.
//
// Results, HitLens, Faults, and Description are assembled by
// ShardedSystem.merge (they need the shard→global index mapping).
type MergeAcc struct {
	reads, totalHits, switches int
	shards                     int
	maxCycles                  int64
	cycleSum                   float64
	suUtilW, euUtilW           float64
	peUtilW, peWTotal          float64
	suSeries, euSeries         []float64
	allocOptimal, allocNear    int
	perClassOpt, perClassTot   []int
	perClassW                  []float64
	traceback                  TracebackStats
	hbm                        mem.Stats
	energyStatic               float64
	energyDynamic              float64
	energyHBM                  float64
	energyTotal                float64
}

// NewMergeAcc returns an empty accumulator.
func NewMergeAcc() *MergeAcc { return &MergeAcc{} }

// Reset zeroes the accumulator in place, retaining vector capacity.
func (a *MergeAcc) Reset() {
	a.reads, a.totalHits, a.switches = 0, 0, 0
	a.shards = 0
	a.maxCycles = 0
	a.cycleSum = 0
	a.suUtilW, a.euUtilW = 0, 0
	a.peUtilW, a.peWTotal = 0, 0
	for i := range a.suSeries {
		a.suSeries[i] = 0
	}
	for i := range a.euSeries {
		a.euSeries[i] = 0
	}
	a.allocOptimal, a.allocNear = 0, 0
	for i := range a.perClassOpt {
		a.perClassOpt[i] = 0
	}
	for i := range a.perClassTot {
		a.perClassTot[i] = 0
	}
	for i := range a.perClassW {
		a.perClassW[i] = 0
	}
	a.traceback = TracebackStats{}
	a.hbm = mem.Stats{}
	a.energyStatic, a.energyDynamic, a.energyHBM, a.energyTotal = 0, 0, 0, 0
}

// grow ensures a float64 scratch slice has at least n entries.
func growF(s []float64, n int) []float64 {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// growI ensures an int scratch slice has at least n entries.
func growI(s []int, n int) []int {
	for len(s) < n {
		s = append(s, 0)
	}
	return s
}

// Add folds one shard report into the accumulator. Steady-state calls
// (after the scratch is sized) allocate nothing.
func (a *MergeAcc) Add(rep *Report) {
	if rep == nil {
		return
	}
	a.reads += rep.Reads
	a.totalHits += rep.TotalHits
	a.switches += rep.Switches
	a.shards++
	if rep.Cycles > a.maxCycles {
		a.maxCycles = rep.Cycles
	}
	w := float64(rep.Cycles)
	a.cycleSum += w
	a.suUtilW += rep.SUUtil * w
	a.euUtilW += rep.EUUtil * w
	hw := float64(rep.TotalHits)
	a.peUtilW += rep.EUPEUtil * hw
	a.peWTotal += hw

	a.suSeries = growF(a.suSeries, len(rep.SUSeries))
	for i, v := range rep.SUSeries {
		a.suSeries[i] += v * w
	}
	a.euSeries = growF(a.euSeries, len(rep.EUSeries))
	for i, v := range rep.EUSeries {
		a.euSeries[i] += v * w
	}

	a.allocOptimal += rep.AllocStats.Optimal
	a.allocNear += rep.AllocStats.NearOptimal
	a.perClassOpt = growI(a.perClassOpt, len(rep.AllocStats.PerClassOptimal))
	for i, v := range rep.AllocStats.PerClassOptimal {
		a.perClassOpt[i] += v
	}
	a.perClassTot = growI(a.perClassTot, len(rep.AllocStats.PerClassTotal))
	for i, v := range rep.AllocStats.PerClassTotal {
		a.perClassTot[i] += v
	}
	a.perClassW = growF(a.perClassW, len(rep.PerClassEUUtil))
	for i, v := range rep.PerClassEUUtil {
		a.perClassW[i] += v * w
	}

	a.traceback.Cycles += rep.Traceback.Cycles
	a.traceback.Spills += rep.Traceback.Spills
	a.traceback.SpillCycles += rep.Traceback.SpillCycles

	a.hbm.Accesses += rep.HBM.Accesses
	a.hbm.RowHits += rep.HBM.RowHits
	a.hbm.RowMisses += rep.HBM.RowMisses
	a.hbm.Bytes += rep.HBM.Bytes
	a.hbm.EnergyPJ += rep.HBM.EnergyPJ

	a.energyStatic += rep.Energy.StaticJ
	a.energyDynamic += rep.Energy.DynamicJ
	a.energyHBM += rep.Energy.HBMJ
	a.energyTotal += rep.Energy.TotalJ
}

// Merged materialises the aggregate Report from the accumulated state.
// The returned Report does not alias accumulator scratch, so the
// accumulator can be Reset and reused. Description, Results, HitLens,
// and Faults are left for the caller.
func (a *MergeAcc) Merged(clockGHz float64) *Report {
	r := &Report{
		Reads:     a.reads,
		TotalHits: a.totalHits,
		Cycles:    a.maxCycles,
		Switches:  a.switches,
		AllocStats: coordinator.Stats{
			Optimal:         a.allocOptimal,
			NearOptimal:     a.allocNear,
			PerClassOptimal: append([]int(nil), a.perClassOpt...),
			PerClassTotal:   append([]int(nil), a.perClassTot...),
		},
		Traceback: a.traceback,
		HBM:       a.hbm,
	}
	if a.maxCycles > 0 && clockGHz > 0 {
		hz := clockGHz * 1e9
		seconds := float64(a.maxCycles) / hz
		r.ThroughputReadsPerSec = float64(a.reads) / seconds
		r.Energy.Seconds = seconds
		r.Energy.StaticJ = a.energyStatic
		r.Energy.DynamicJ = a.energyDynamic
		r.Energy.HBMJ = a.energyHBM
		r.Energy.TotalJ = a.energyTotal
		if a.reads > 0 {
			r.Energy.PerReadJ = a.energyTotal / float64(a.reads)
		}
		if seconds > 0 {
			r.Energy.AvgPowerW = a.energyTotal / seconds
		}
	}
	if a.cycleSum > 0 {
		r.SUUtil = a.suUtilW / a.cycleSum
		r.EUUtil = a.euUtilW / a.cycleSum
		r.SUSeries = make([]float64, len(a.suSeries))
		for i, v := range a.suSeries {
			r.SUSeries[i] = v / a.cycleSum
		}
		r.EUSeries = make([]float64, len(a.euSeries))
		for i, v := range a.euSeries {
			r.EUSeries[i] = v / a.cycleSum
		}
		r.PerClassEUUtil = make([]float64, len(a.perClassW))
		for i, v := range a.perClassW {
			r.PerClassEUUtil[i] = v / a.cycleSum
		}
	}
	if a.peWTotal > 0 {
		r.EUPEUtil = a.peUtilW / a.peWTotal
	}
	// Makespan-normalized utilizations: busy unit-cycles (suUtilW is
	// Σ shard-mean-util × shard-cycles) over S chips × makespan of
	// capacity.
	if a.shards > 0 && a.maxCycles > 0 {
		capacity := float64(a.shards) * float64(a.maxCycles)
		r.SUUtilMakespan = a.suUtilW / capacity
		r.EUUtilMakespan = a.euUtilW / capacity
	}
	return r
}

// MergeReportsReference is the specification implementation of the
// shard merge: an independent, readable oracle the optimized MergeAcc
// path is tested against (the role ExtendReference plays for the
// banded extension kernel). It allocates fresh scratch per call and accumulates each field in the same shard order
// and operation order as MergeAcc, so the two paths agree exactly —
// not just approximately — on every float.
func MergeReportsReference(reps []*Report, clockGHz float64) *Report {
	r := &Report{}
	var shards int
	var maxCycles int64
	var cycleSum, suW, euW, peW, peTot float64
	var suSeries, euSeries, perClassW []float64
	var perClassOpt, perClassTot []int
	var eStatic, eDyn, eHBM, eTot float64
	for _, rep := range reps {
		if rep == nil {
			continue
		}
		r.Reads += rep.Reads
		r.TotalHits += rep.TotalHits
		r.Switches += rep.Switches
		shards++
		if rep.Cycles > maxCycles {
			maxCycles = rep.Cycles
		}
		w := float64(rep.Cycles)
		cycleSum += w
		suW += rep.SUUtil * w
		euW += rep.EUUtil * w
		hw := float64(rep.TotalHits)
		peW += rep.EUPEUtil * hw
		peTot += hw
		suSeries = growF(suSeries, len(rep.SUSeries))
		for i, v := range rep.SUSeries {
			suSeries[i] += v * w
		}
		euSeries = growF(euSeries, len(rep.EUSeries))
		for i, v := range rep.EUSeries {
			euSeries[i] += v * w
		}
		r.AllocStats.Optimal += rep.AllocStats.Optimal
		r.AllocStats.NearOptimal += rep.AllocStats.NearOptimal
		perClassOpt = growI(perClassOpt, len(rep.AllocStats.PerClassOptimal))
		for i, v := range rep.AllocStats.PerClassOptimal {
			perClassOpt[i] += v
		}
		perClassTot = growI(perClassTot, len(rep.AllocStats.PerClassTotal))
		for i, v := range rep.AllocStats.PerClassTotal {
			perClassTot[i] += v
		}
		perClassW = growF(perClassW, len(rep.PerClassEUUtil))
		for i, v := range rep.PerClassEUUtil {
			perClassW[i] += v * w
		}
		r.Traceback.Cycles += rep.Traceback.Cycles
		r.Traceback.Spills += rep.Traceback.Spills
		r.Traceback.SpillCycles += rep.Traceback.SpillCycles
		r.HBM.Accesses += rep.HBM.Accesses
		r.HBM.RowHits += rep.HBM.RowHits
		r.HBM.RowMisses += rep.HBM.RowMisses
		r.HBM.Bytes += rep.HBM.Bytes
		r.HBM.EnergyPJ += rep.HBM.EnergyPJ
		eStatic += rep.Energy.StaticJ
		eDyn += rep.Energy.DynamicJ
		eHBM += rep.Energy.HBMJ
		eTot += rep.Energy.TotalJ
	}
	r.Cycles = maxCycles
	r.AllocStats.PerClassOptimal = append([]int(nil), perClassOpt...)
	r.AllocStats.PerClassTotal = append([]int(nil), perClassTot...)
	if maxCycles > 0 && clockGHz > 0 {
		hz := clockGHz * 1e9
		seconds := float64(maxCycles) / hz
		r.ThroughputReadsPerSec = float64(r.Reads) / seconds
		r.Energy.Seconds = seconds
		r.Energy.StaticJ = eStatic
		r.Energy.DynamicJ = eDyn
		r.Energy.HBMJ = eHBM
		r.Energy.TotalJ = eTot
		if r.Reads > 0 {
			r.Energy.PerReadJ = eTot / float64(r.Reads)
		}
		if seconds > 0 {
			r.Energy.AvgPowerW = eTot / seconds
		}
	}
	if cycleSum > 0 {
		r.SUUtil = suW / cycleSum
		r.EUUtil = euW / cycleSum
		r.SUSeries = make([]float64, len(suSeries))
		for i, v := range suSeries {
			r.SUSeries[i] = v / cycleSum
		}
		r.EUSeries = make([]float64, len(euSeries))
		for i, v := range euSeries {
			r.EUSeries[i] = v / cycleSum
		}
		r.PerClassEUUtil = make([]float64, len(perClassW))
		for i, v := range perClassW {
			r.PerClassEUUtil[i] = v / cycleSum
		}
	}
	if peTot > 0 {
		r.EUPEUtil = peW / peTot
	}
	if shards > 0 && maxCycles > 0 {
		capacity := float64(shards) * float64(maxCycles)
		r.SUUtilMakespan = suW / capacity
		r.EUUtilMakespan = euW / capacity
	}
	return r
}
