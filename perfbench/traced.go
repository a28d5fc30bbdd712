package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"nvwa/internal/seq"
)

// tracedSamples is how many traced samples a run takes, spread evenly
// over it: enough for steady per-layer fractions, while the spans of a
// live-short run stay near 250k.
const tracedSamples = 24

// spanDir is where the traced run writes its spans, inside the
// checkout's build directory.
const spanDir = ".bench_build/trace"

// layerOf maps the name of a span inside a sample to the module whose
// public function it times.
var layerOf = map[string]string{
	"Aligner.SeedAndChain":  "fmindex",
	"Aligner.ExtendHitCost": "align",
	"accel.New":             "accel",
	"System.Feed":           "accel",
	"System.Step":           "accel",
	"System.DrainChecked":   "accel",
	"sample":                "bench",
}

// funcCounts accumulates the exact work the functional layers did.
type funcCounts struct {
	reads, hits    int
	occ, sa, cells int64
}

// functionalPass makes the calls accel.BuildMemo makes for every read
// (seeding and chaining, then each hit's extension), one at a time
// under spans, so seeding and extension time is attributed where it is
// spent. cells_per_hit counts Σ rows × query extent over both flanks
// of each extension, as reported by pipeline.ExtendCost.
func functionalPass(e *env, tr *Tracer, parent int32, c *funcCounts) {
	for i, read := range e.reads {
		sp := tr.begin("Aligner.SeedAndChain", parent)
		hits, st := e.aligner.SeedAndChain(i, read)
		tr.end(sp)
		c.reads++
		c.occ += int64(st.OccAccesses)
		c.sa += int64(st.SALookups)
		var rc seq.Seq
		for _, h := range hits {
			oriented := read
			if h.Rev {
				if rc == nil {
					rc = read.RevComp()
				}
				oriented = rc
			}
			sp := tr.begin("Aligner.ExtendHitCost", parent)
			_, cost := e.aligner.ExtendHitCost(oriented, h)
			tr.end(sp)
			c.hits++
			c.cells += int64(cost.LeftRows*cost.LeftQ + cost.RightRows*cost.RightQ)
		}
	}
}

// tracedRun is the per-layer run. Each iteration makes an untraced
// sample (for trace overhead, residual and Go runtime deltas), a traced
// sample when the next of tracedSamples evenly spaced slots is due, and
// a plain/observed replay pair over the same reads (for obs.overhead).
// A traced sample of a live workload is split into a functional pass
// plus a replay of the same reads; a replay sample is the replay alone.
func tracedRun(w workload, seed int64, d time.Duration, g goldenFile) (result, error) {
	tr := newTracer(w.name)
	e, sts := setupRepeated(w, seed, tr)
	memoS := median(pick(sts, func(s setupTimes) float64 { return s.memo }))
	if !w.replay {
		// Live set-up has no memo; the traced sample's replay half needs one.
		memoS = e.buildMemo(tr)
	}
	ref := validate(e, g)
	var events int64
	if ref.sys != nil {
		if ck, err := ref.sys.Snapshot(); err == nil {
			events = ck.Fired
		}
	}

	var fc funcCounts
	if w.replay {
		// Replay samples never call the functional layers; one pass
		// outside the samples still gives their per-call cost.
		root := tr.begin("functional-pass", noParent)
		functionalPass(e, tr, root, &fc)
		tr.end(root)
	}

	t := newTally()
	var untraced, plain, observed []float64
	untracedOf := map[int32]float64{} // untraced seconds of each iteration that also traced
	var allocB, mallocs, gcs uint64
	violations := 0
	traceMode := mode{replay: true, observed: w.observed}
	gap := d / tracedSamples
	nextTraced := time.Now()
	deadline := nextTraced.Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := e.run(w.mode(), nil, noParent)
		el := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.refuse(err)
		} else {
			untraced = append(untraced, el)
			allocB += m1.TotalAlloc - m0.TotalAlloc
			mallocs += m1.Mallocs - m0.Mallocs
			gcs += uint64(m1.NumGC - m0.NumGC)
			t.check(ref, out)
		}

		if !time.Now().Before(nextTraced) {
			nextTraced = nextTraced.Add(gap)
			if err == nil {
				untracedOf[int32(i)] = el
			}
			tr.setSample(i)
			root := tr.begin("sample", noParent)
			if !w.replay {
				functionalPass(e, tr, root, &fc)
			}
			out, err := e.run(traceMode, tr, root)
			tr.end(root)
			tr.setSample(-1)
			if err != nil {
				t.refuse(err)
			} else {
				t.check(ref, out)
			}
		}

		for _, m := range []mode{{replay: true}, {replay: true, observed: true}} {
			t0 := time.Now()
			out, err := e.run(m, nil, noParent)
			el := time.Since(t0).Seconds()
			if err != nil {
				t.refuse(err)
				continue
			}
			if m.observed {
				observed = append(observed, el)
				violations += len(out.obs.Inv.Violations())
			} else {
				plain = append(plain, el)
			}
			t.check(ref, out)
		}
	}

	path, err := tr.write(spanDir, seed)
	if err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	lm := layerMetrics(tr.spans, events)

	// Each traced sample is compared with the untraced sample of its
	// own iteration, so host-speed drift between the two cancels.
	var overhead, residual []float64
	for id, ns := range lm.sampleNs {
		if u, ok := untracedOf[id]; ok {
			overhead = append(overhead, ns/1e9/u)
			residual = append(residual, 1-lm.coveredNs[id]/1e9/u)
		}
	}
	n := float64(len(untraced))
	reads := float64(len(e.reads))
	m := map[string]metric{
		"setup.genome_s": {median(pick(sts, func(s setupTimes) float64 { return s.genome })), "s"},
		"setup.index_s":  {median(pick(sts, func(s setupTimes) float64 { return s.index })), "s"},
		"setup.memo_s":   {memoS, "s"},

		"fmindex.seed_us_per_read":      {lm.perCall["Aligner.SeedAndChain"] / 1e3, "us"},
		"fmindex.occ_accesses_per_read": {float64(fc.occ) / float64(fc.reads), "count"},
		"fmindex.sa_lookups_per_read":   {float64(fc.sa) / float64(fc.reads), "count"},
		"fmindex.self_frac":             {lm.selfFrac["fmindex"], "frac"},

		"align.extend_ns_per_hit": {lm.perCall["Aligner.ExtendHitCost"], "ns"},
		"align.cells_per_hit":     {float64(fc.cells) / float64(fc.hits), "count"},
		"align.gcups":             {float64(fc.cells) / lm.total["Aligner.ExtendHitCost"], "GCUPS"},
		"align.self_frac":         {lm.selfFrac["align"], "frac"},

		"accel.new_ms":       {lm.newMs, "ms"},
		"accel.step_ms":      {lm.stepMs, "ms"},
		"accel.drain_ms":     {lm.drainMs, "ms"},
		"accel.ns_per_event": {lm.nsPerEvent, "ns"},
		"accel.self_frac":    {lm.selfFrac["accel"], "frac"},

		"obs.overhead":   {median(observed) / median(plain), "ratio"},
		"obs.violations": {float64(violations), "count"},

		"runtime.alloc_kb_per_read": {float64(allocB) / 1024 / n / reads, "KB"},
		"runtime.mallocs_per_read":  {float64(mallocs) / n / reads, "count"},
		"runtime.gc_cycles":         {float64(gcs) / n, "count"},

		"trace.overhead":      {median(overhead), "ratio"},
		"trace.residual_frac": {median(residual), "frac"},
	}
	if r := ref.report; r != nil {
		m["sim.events"] = metric{float64(events), "count"}
		m["sim.cycles"] = metric{float64(r.Cycles), "cycles"}
		m["coordinator.switches"] = metric{float64(r.Switches), "count"}
		m["coordinator.optimal_frac"] = metric{r.AllocStats.OptimalFraction(), "frac"}
		m["su.util"] = metric{r.SUUtil, "frac"}
		m["eu.util"] = metric{r.EUUtil, "frac"}
		m["eu.pe_util"] = metric{r.EUPEUtil, "frac"}
		m["eu.hits"] = metric{float64(r.TotalHits), "count"}
		m["eu.traceback_spills"] = metric{float64(r.Traceback.Spills), "count"}
		m["mem.hbm_accesses"] = metric{float64(r.HBM.Accesses), "count"}
		rowHit := 0.0
		if acc := r.HBM.RowHits + r.HBM.RowMisses; acc > 0 {
			rowHit = float64(r.HBM.RowHits) / float64(acc)
		}
		m["mem.row_hit_frac"] = metric{rowHit, "frac"}
	}

	fmt.Printf("workload %s seed %d (traced): %d reads, %d traced samples, %d untraced, %d spans written to %s\n",
		w.name, seed, len(e.reads), len(lm.sampleNs), len(untraced), len(tr.spans), path)
	fmt.Println("self time by layer over traced samples (counts are exact; none of these is a speed-up):")
	layers := make([]string, 0, len(lm.selfFrac))
	for l := range lm.selfFrac {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("  %-10s %.4f of sample time\n", l, lm.selfFrac[l])
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-30s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	t.print(ref)
	return t.result(ref, m), nil
}

func pick(sts []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(sts))
	for i, s := range sts {
		out[i] = f(s)
	}
	return out
}

// layerTimes are the span-derived per-layer figures.
type layerTimes struct {
	total    map[string]float64 // Σ span ns per span name
	perCall  map[string]float64 // mean span ns per span name
	selfFrac map[string]float64 // Σ self ns of a layer in samples / Σ sample ns
	// per traced sample id: root duration and the part its children cover
	sampleNs, coveredNs                map[int32]float64
	newMs, stepMs, drainMs, nsPerEvent float64
}

// layerMetrics derives the per-layer figures from the spans. events is
// the number of simulation events one sample fires.
func layerMetrics(spans []Span, events int64) layerTimes {
	self := selfTimes(spans)
	lt := layerTimes{total: map[string]float64{}, perCall: map[string]float64{}, selfFrac: map[string]float64{},
		sampleNs: map[int32]float64{}, coveredNs: map[int32]float64{}}
	calls := map[string]int{}
	type perSample struct{ newNs, stepNs, drainNs float64 }
	samples := map[int32]*perSample{}
	var sampleTotal float64
	for i, s := range spans {
		lt.total[s.Name] += float64(s.Dur())
		calls[s.Name]++
		if s.Sample < 0 {
			continue
		}
		if s.Name == "sample" {
			lt.sampleNs[s.Sample] = float64(s.Dur())
			lt.coveredNs[s.Sample] = float64(s.Dur() - self[i])
			sampleTotal += float64(s.Dur())
		}
		lt.selfFrac[layerOf[s.Name]] += float64(self[i])
		ps := samples[s.Sample]
		if ps == nil {
			ps = &perSample{}
			samples[s.Sample] = ps
		}
		switch s.Name {
		case "accel.New":
			ps.newNs += float64(s.Dur())
		case "System.Step":
			ps.stepNs += float64(s.Dur())
		case "System.DrainChecked":
			ps.drainNs += float64(s.Dur())
		}
	}
	for name, tot := range lt.total {
		lt.perCall[name] = tot / float64(calls[name])
	}
	for _, l := range []string{"fmindex", "align", "accel", "bench"} {
		lt.selfFrac[l] /= sampleTotal
	}
	var news, steps, drains, perEv []float64
	for _, ps := range samples {
		news = append(news, ps.newNs/1e6)
		steps = append(steps, ps.stepNs/1e6)
		drains = append(drains, ps.drainNs/1e6)
		if events > 0 {
			perEv = append(perEv, (ps.stepNs+ps.drainNs)/float64(events))
		}
	}
	lt.newMs, lt.stepMs, lt.drainMs, lt.nsPerEvent = median(news), median(steps), median(drains), median(perEv)
	return lt
}
