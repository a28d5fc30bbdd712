// Package kernbench defines the repository's kernel benchmark suite in
// one place, so `go test -bench` (kernbench_test.go) and the
// `nvwa-bench -kernels` JSON emitter run the exact same measurement
// bodies.
//
// A before/after case pairs an optimized kernel with a slower way of
// doing the same work, measured in the same process: either a retained
// reference implementation that tests also use as the correctness
// oracle (align.Extend, sim.Events), or the same production code
// without its allocation reuse (sim.Schedule, accel.MergeReports). A
// case with neither is after-only: it has no speedup and is gated on
// its absolute allocs/op instead.
//
//   - align.Extend: full-row DP (ExtendReference) vs the z-drop-aware
//     shrinking-band kernel with reused Scratch.
//   - fmindex.Seeds (after-only): workspace seeding over the
//     interleaved occ-block layout with the k-mer LUT jump-start.
//   - sim.Schedule: closure events (one allocation each) vs pooled
//     Task events on the typed heap.
//   - pipeline.Align (after-only): the software seed-and-extend
//     aligner end to end.
//   - accel.MergeReports: a fresh MergeAcc per merge (the cost of
//     sizing the scratch every call) vs one reused zero-alloc MergeAcc.
//   - sim.Events: the binary min-heap event queue vs the cycle-bucketed
//     calendar queue (identical (at, seq) pop order).
//   - accel.Replay (after-only): the full memoized accelerator system
//     under the default NvWaOptions.
package kernbench

import (
	"math/rand"
	"sync"
	"testing"

	"nvwa/internal/accel"
	"nvwa/internal/align"
	"nvwa/internal/fmindex"
	"nvwa/internal/genome"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
	"nvwa/internal/sim"
)

// Case is one kernel's before/after benchmark pair.
type Case struct {
	// Kernel identifies the kernel and workload shape, e.g.
	// "align.Extend/101bp".
	Kernel string
	// Note says what each side runs.
	Note string
	// Before benchmarks the retained reference implementation; nil
	// for an after-only case.
	Before func(b *testing.B)
	// After benchmarks the optimized kernel.
	After func(b *testing.B)
}

// homologousPair returns a reference window and a diverged read: the
// read matches the reference prefix with one substitution every div
// bases, the shape seed extension sees on a real flank.
func homologousPair(seed int64, refLen, readLen, div int) (ref, read []byte) {
	rng := rand.New(rand.NewSource(seed))
	ref = make([]byte, refLen)
	for i := range ref {
		ref[i] = byte(rng.Intn(4))
	}
	read = make([]byte, readLen)
	copy(read, ref)
	for i := div; i < readLen; i += div {
		read[i] = (read[i] + 1 + byte(rng.Intn(3))) & 3
	}
	return ref, read
}

// repeatText plants tandem and dispersed repeats so all three seeding
// passes (SMEM, re-seed, repeat) do real work.
func repeatText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	unit := make([]byte, 13)
	for i := range unit {
		unit[i] = byte(rng.Intn(4))
	}
	t := make([]byte, 0, n+len(unit))
	for len(t) < n {
		if rng.Intn(3) == 0 {
			t = append(t, unit...)
		} else {
			t = append(t, byte(rng.Intn(4)))
		}
	}
	return t[:n]
}

// drawReads samples nReads reads of length readLen from text with ~5%
// substitutions.
func drawReads(seed int64, text []byte, nReads, readLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	reads := make([][]byte, nReads)
	for i := range reads {
		off := rng.Intn(len(text) - readLen)
		r := make([]byte, readLen)
		copy(r, text[off:off+readLen])
		for k := 0; k < readLen/20; k++ {
			r[rng.Intn(readLen)] = byte(rng.Intn(4))
		}
		reads[i] = r
	}
	return reads
}

var (
	seederOnce sync.Once
	seederText []byte
	seeder     *fmindex.Seeder
	seedReads  [][]byte

	e2eOnce    sync.Once
	e2eAligner *pipeline.Aligner
	e2eReads   []seq.Seq
)

func seedingData() (*fmindex.Seeder, [][]byte) {
	seederOnce.Do(func() {
		seederText = repeatText(101, 50000)
		seeder = fmindex.NewSeeder(seederText)
		seedReads = drawReads(103, seederText, 64, 101)
	})
	return seeder, seedReads
}

func endToEndData() (*pipeline.Aligner, []seq.Seq) {
	e2eOnce.Do(func() {
		ref := genome.Generate(genome.HumanLike(), 100000, 7)
		e2eAligner = pipeline.New(ref.Seq, pipeline.DefaultOptions())
		for _, r := range genome.Simulate(ref, 200, genome.ShortReadConfig(9)) {
			e2eReads = append(e2eReads, r.Seq)
		}
	})
	return e2eAligner, e2eReads
}

// extendCase builds an align.Extend before/after pair over the given
// flank shape. initScore models the accumulated seed score; zdrop is
// the pipeline default.
func extendCase(name string, refLen, readLen, div, initScore int) Case {
	sc := align.BWAMEM()
	const zdrop = 50
	const pairs = 8
	build := func() ([][]byte, [][]byte) {
		refs := make([][]byte, pairs)
		reads := make([][]byte, pairs)
		for i := range refs {
			refs[i], reads[i] = homologousPair(int64(1000*refLen+i), refLen, readLen, div)
		}
		return refs, reads
	}
	return Case{
		Kernel: "align.Extend/" + name,
		Note:   "full-row DP (reference) vs shrinking-band DP with reused Scratch",
		Before: func(b *testing.B) {
			refs, reads := build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % pairs
				align.ExtendReference(refs[k], reads[k], sc, initScore, zdrop)
			}
		},
		After: func(b *testing.B) {
			refs, reads := build()
			var s align.Scratch
			for k := 0; k < pairs; k++ { // warm across the size distribution
				align.ExtendWithScratch(&s, refs[k], reads[k], sc, initScore, zdrop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % pairs
				align.ExtendWithScratch(&s, refs[k], reads[k], sc, initScore, zdrop)
			}
		},
	}
}

// Cases returns the kernel benchmark suite.
func Cases() []Case {
	cases := []Case{
		extendCase("101bp", 120, 101, 25, 19),
		extendCase("200bp-flank", 240, 200, 50, 19),
		{
			Kernel: "fmindex.Seeds/101bp",
			Note:   "workspace seeding over interleaved occ blocks + k-mer LUT jump-start (after-only)",
			After: func(b *testing.B) {
				sd, reads := seedingData()
				var ws fmindex.Workspace
				var st fmindex.Stats
				for _, r := range reads {
					sd.SeedsWS(&ws, r, 15, 16, 8, &st) // warm
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sd.SeedsWS(&ws, reads[i%len(reads)], 15, 16, 8, &st)
				}
			},
		},
		{
			Kernel: "sim.Schedule/1k-events",
			Note:   "closure events (one allocation each) vs pooled Tasks on the typed heap",
			Before: func(b *testing.B) {
				var e sim.Engine
				n := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < 1024; j++ {
						jj := j
						e.At(e.Now()+int64(jj%7), func() { n += jj })
					}
					e.Run()
				}
			},
			After: func(b *testing.B) {
				var e sim.Engine
				t := &addTask{}
				for j := 0; j < 1024; j++ { // warm the heap's backing array
					e.AtTask(e.Now()+int64(j%7), t)
				}
				e.Run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < 1024; j++ {
						e.AtTask(e.Now()+int64(j%7), t)
					}
					e.Run()
				}
			},
		},
		{
			Kernel: "pipeline.Align/end-to-end",
			Note:   "software seed-and-extend aligner (after-only)",
			After: func(b *testing.B) {
				a, reads := endToEndData()
				for _, r := range reads[:8] {
					a.Align(0, r) // warm the scratch pool
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.Align(0, reads[i%len(reads)])
				}
			},
		},
	}
	cases = append(cases, mergeCase(), calendarCase(), replayCase())
	return cases
}

// calendarCase pairs the retained binary min-heap event queue against
// the cycle-bucketed calendar queue on a pure scheduling workload:
// mixed short deltas (the dispatch steady state) plus a sprinkle of
// far-future pushes that exercise the overflow heap and migration.
// Both sides run the same pooled task so the measurement isolates the
// queue; the After side must stay allocation-free in steady state.
func calendarCase() Case {
	const rounds = 1024
	run := func(e *sim.Engine, t sim.Task) {
		for j := 0; j < rounds; j++ {
			e.AtTask(e.Now()+int64(j%11), t)
			if j%64 == 0 {
				e.AtTask(e.Now()+int64(2048+j), t) // overflow path
			}
		}
		e.Run()
	}
	return Case{
		Kernel: "sim.Events/calendar",
		Note:   "binary min-heap pop/push (reference) vs cycle-bucketed calendar queue with overflow heap",
		Before: func(b *testing.B) {
			var e sim.Engine
			e.SetReferenceHeap(true)
			t := &addTask{}
			run(&e, t) // warm the heap's backing array
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(&e, t)
			}
		},
		After: func(b *testing.B) {
			var e sim.Engine
			t := &addTask{}
			run(&e, t) // warm the ring and overflow backing arrays
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(&e, t)
			}
		},
	}
}

var (
	dispatchOnce    sync.Once
	dispatchAligner *pipeline.Aligner
	dispatchReads   []seq.Seq
	dispatchMemo    *accel.Memo
)

// dispatchData builds the dispatch workload: a read set large enough
// that the event loop dominates System construction, with one warmed
// functional-replay memo so the measurement times only the scheduling
// machinery.
func dispatchData() (*pipeline.Aligner, []seq.Seq, *accel.Memo) {
	dispatchOnce.Do(func() {
		ref := genome.Generate(genome.HumanLike(), 100000, 17)
		dispatchAligner = pipeline.New(ref.Seq, pipeline.DefaultOptions())
		for _, r := range genome.Simulate(ref, 1200, genome.ShortReadConfig(19)) {
			dispatchReads = append(dispatchReads, r.Seq)
		}
		dispatchMemo = accel.BuildMemo(dispatchAligner, nil, dispatchReads, 0)
	})
	return dispatchAligner, dispatchReads, dispatchMemo
}

// replayCase times the full accelerator system replaying the dispatch
// workload's memo under the default NvWaOptions, so only the
// scheduling layers run: SU/EU cost models, Coordinator rounds, the
// event engine, and report assembly. It has no reference side; the
// row is gated on its absolute allocs/op.
func replayCase() Case {
	run := func(b *testing.B) {
		a, reads, memo := dispatchData()
		o := accel.NvWaOptions()
		o.Memo = memo
		// Trace resolution is orthogonal to scheduling; a coarse series
		// keeps report assembly from diluting the measured machinery.
		o.TraceBuckets = 4
		sys, err := accel.New(a, o)
		if err != nil {
			b.Fatal(err)
		}
		sys.Run(reads)
	}
	return Case{
		Kernel: "accel.Replay/full-system",
		Note:   "full memoized system under NvWaOptions (after-only: no reference side)",
		After: func(b *testing.B) {
			run(b) // warm the memo
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(b)
			}
		},
	}
}

// shardReports synthesises n deterministic per-shard Reports with the
// vector shapes a real scale-out run produces (utilization series,
// per-class counters), so the merge benchmark reduces realistic state.
func shardReports(n int) []*accel.Report {
	rng := rand.New(rand.NewSource(97))
	reps := make([]*accel.Report, n)
	for i := range reps {
		r := &accel.Report{
			Reads:     200 + rng.Intn(100),
			TotalHits: 700 + rng.Intn(400),
			Cycles:    int64(9000 + rng.Intn(4000)),
			Switches:  120 + rng.Intn(60),
			SUUtil:    0.3 + 0.5*rng.Float64(),
			EUUtil:    0.2 + 0.5*rng.Float64(),
			EUPEUtil:  0.1 + 0.4*rng.Float64(),
		}
		r.SUSeries = make([]float64, 64)
		r.EUSeries = make([]float64, 64)
		for j := 0; j < 64; j++ {
			r.SUSeries[j] = rng.Float64()
			r.EUSeries[j] = rng.Float64()
		}
		r.PerClassEUUtil = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		r.AllocStats.Optimal = 400 + rng.Intn(200)
		r.AllocStats.NearOptimal = 100 + rng.Intn(100)
		r.AllocStats.PerClassOptimal = []int{rng.Intn(200), rng.Intn(200), rng.Intn(200)}
		r.AllocStats.PerClassTotal = []int{200 + rng.Intn(100), 200 + rng.Intn(100), 200 + rng.Intn(100)}
		r.HBM.Accesses = int64(4000 + rng.Intn(2000))
		r.HBM.RowHits = r.HBM.Accesses - int64(rng.Intn(300))
		r.HBM.RowMisses = r.HBM.Accesses - r.HBM.RowHits
		r.HBM.Bytes = r.HBM.Accesses * 64
		r.HBM.EnergyPJ = float64(r.HBM.Accesses) * 12.5
		r.Energy.StaticJ = 1e-5 * rng.Float64()
		r.Energy.DynamicJ = 1e-5 * rng.Float64()
		r.Energy.HBMJ = 1e-6 * rng.Float64()
		r.Energy.TotalJ = r.Energy.StaticJ + r.Energy.DynamicJ + r.Energy.HBMJ
		reps[i] = r
	}
	return reps
}

// mergeCase pairs a fresh MergeAcc per merge against one reused
// MergeAcc over 16 synthetic shard Reports, so the row measures what
// retaining the vector scratch across Reset saves.
func mergeCase() Case {
	return Case{
		Kernel: "accel.MergeReports/16-shards",
		Note:   "fresh MergeAcc per merge vs reused zero-alloc MergeAcc reduction",
		Before: func(b *testing.B) {
			reps := shardReports(16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc := accel.NewMergeAcc()
				for _, r := range reps {
					acc.Add(r)
				}
				acc.Merged(1.0)
			}
		},
		After: func(b *testing.B) {
			reps := shardReports(16)
			acc := accel.NewMergeAcc()
			acc.Reset()
			for _, r := range reps { // warm the retained scratch
				acc.Add(r)
			}
			acc.Merged(1.0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				acc.Reset()
				for _, r := range reps {
					acc.Add(r)
				}
				acc.Merged(1.0)
			}
		},
	}
}

// addTask is the pooled benchmark task for the scheduling case.
type addTask struct{ n int }

// Fire implements sim.Task.
func (t *addTask) Fire() { t.n++ }
