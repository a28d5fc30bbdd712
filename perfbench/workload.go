package main

import (
	"fmt"
	"runtime"
	"time"

	"nvwa/internal/accel"
	"nvwa/internal/genome"
	"nvwa/internal/obs"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

const (
	// refLen and refSeed fix the reference: like a real genome it is
	// the same for every run, and --seed draws the reads aligned to it.
	refLen  = 200_000
	refSeed = 42
	// stepBudget is the cycle slice each System.Step call advances.
	stepBudget = 8192
	// setupRounds is how often a run repeats set-up; setup_s is the
	// median.
	setupRounds = 9
)

// workload is one named input set and the way it is simulated.
type workload struct {
	name     string
	reads    int
	long     bool // genome.LongReadConfig instead of ShortReadConfig
	replay   bool // functional results memoized in set-up
	observed bool // fresh obs.NewInvariantsOnly per sample
}

var workloads = []workload{
	{name: "live-short", reads: 2000},
	{name: "replay-short", reads: 2000, replay: true},
	{name: "replay-observed", reads: 2000, replay: true, observed: true},
	{name: "live-long", reads: 30, long: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// env is the set-up state a run's samples share.
type env struct {
	w       workload
	seed    int64
	aligner *pipeline.Aligner
	reads   []seq.Seq
	memo    *accel.Memo // always built on replay workloads; on demand otherwise
}

// setupTimes are the durations of one set-up's phases in seconds.
type setupTimes struct {
	genome, index, memo float64
}

func (s setupTimes) total() float64 { return s.genome + s.index + s.memo }

// setup synthesizes the reference and reads, builds the FM index, and
// on replay workloads builds the functional memo. It is what a user
// pays once per process before the first simulation.
func setup(w workload, seed int64, tr *Tracer) (*env, setupTimes) {
	var st setupTimes
	e := &env{w: w, seed: seed}

	t0 := time.Now()
	sp := tr.begin("genome.Generate", noParent)
	ref := genome.Generate(genome.HumanLike(), refLen, refSeed)
	cfg := genome.ShortReadConfig(seed)
	if w.long {
		cfg = genome.LongReadConfig(seed)
	}
	recs := genome.Simulate(ref, w.reads, cfg)
	e.reads = make([]seq.Seq, len(recs))
	for i, r := range recs {
		e.reads[i] = r.Seq
	}
	tr.end(sp)
	st.genome = time.Since(t0).Seconds()

	t0 = time.Now()
	sp = tr.begin("pipeline.New", noParent)
	e.aligner = pipeline.New(ref.Seq, pipeline.DefaultOptions())
	tr.end(sp)
	st.index = time.Since(t0).Seconds()

	if w.replay {
		st.memo = e.buildMemo(tr)
	}
	return e, st
}

// setupRepeated runs set-up setupRounds times and keeps the last
// result. Each round starts after a forced collection of the previous
// round's state, so peak memory reflects one set-up, as a user pays it.
func setupRepeated(w workload, seed int64, tr *Tracer) (*env, []setupTimes) {
	var e *env
	var sts []setupTimes
	for i := 0; i < setupRounds; i++ {
		e = nil
		runtime.GC()
		var st setupTimes
		e, st = setup(w, seed, tr)
		sts = append(sts, st)
	}
	return e, sts
}

// buildMemo runs the functional pass for the read set on GOMAXPROCS
// workers and returns its duration in seconds.
func (e *env) buildMemo(tr *Tracer) float64 {
	t0 := time.Now()
	sp := tr.begin("accel.BuildMemo", noParent)
	e.memo = accel.BuildMemo(e.aligner, nil, e.reads, 0)
	tr.end(sp)
	return time.Since(t0).Seconds()
}

// mode selects how one simulation obtains its functional results.
type mode struct {
	replay   bool
	observed bool
}

func (w workload) mode() mode { return mode{replay: w.replay, observed: w.observed} }

// reportOut is one finished simulation.
type reportOut struct {
	report *accel.Report
	obs    *obs.Observer // nil unless the mode is observed
	sys    *accel.System
}

// run simulates the read set once through the public incremental API
// under default options: accel.New, one Feed, Step slices to
// quiescence, DrainChecked. With a tracer, each call is a child span
// of parent.
func (e *env) run(m mode, tr *Tracer, parent int32) (*reportOut, error) {
	o := accel.NvWaOptions()
	if m.replay {
		o.Memo = e.memo
	}
	if m.observed {
		o.Obs = obs.NewInvariantsOnly()
	}
	sp := tr.begin("accel.New", parent)
	sys, err := accel.New(e.aligner, o)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("accel.New: %w", err)
	}
	sp = tr.begin("System.Feed", parent)
	sys.Feed(e.reads)
	tr.end(sp)
	for {
		sp = tr.begin("System.Step", parent)
		done, err := sys.Step(stepBudget)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("System.Step: %w", err)
		}
		if done {
			break
		}
	}
	sp = tr.begin("System.DrainChecked", parent)
	rep, err := sys.DrainChecked()
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("System.DrainChecked: %w", err)
	}
	return &reportOut{report: rep, obs: o.Obs, sys: sys}, nil
}
