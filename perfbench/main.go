// Command perfbench is the repository benchmark: host throughput of
// the NvWa accelerator simulator on named workloads, with a separate
// traced run that attributes host time to each layer.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload live-short --seed 42 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print
// every metric by name and unit. See README.md for the metrics, the
// workloads and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked simulations and why any of them failed.
type tally struct {
	attempted, failed, refused int
	reasons                    map[string]int
	digests                    map[string]int
}

func newTally() *tally { return &tally{reasons: map[string]int{}, digests: map[string]int{}} }

func (t *tally) refuse(err error) {
	t.attempted++
	t.refused++
	t.reasons["refused: "+err.Error()]++
}

// check records one finished simulation against the reference.
func (t *tally) check(ref reference, rep *reportOut) {
	t.attempted++
	d := digest(rep.report)
	t.digests[d]++
	reason := ""
	switch {
	case ref.err != nil:
		reason = "reference failed validation: " + ref.err.Error()
	case d != ref.digest:
		reason = fmt.Sprintf("report digest %s differs from reference %s", d, ref.digest)
	case rep.obs != nil && rep.obs.Inv.Err() != nil:
		reason = "invariants: " + rep.obs.Inv.Err().Error()
	}
	if reason != "" {
		t.failed++
		t.reasons[reason]++
	}
}

func (t *tally) print(ref reference) {
	fmt.Printf("%-28s %-14s (%d failed + %d refused of %d attempted)\n", "failed_frac",
		fmt.Sprintf("%g frac", failedFrac(t.attempted, t.failed, t.refused)), t.failed, t.refused, t.attempted)
	fmt.Printf("%-28s %s (%d distinct over %d reports; recorded digest: %s)\n", "report_digest",
		ref.digest, len(t.digests), t.attempted-t.refused, ref.golden)
	keys := make([]string, 0, len(t.reasons))
	for k := range t.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("FAILED x%d: %s\n", t.reasons[k], k)
	}
}

func (t *tally) result(ref reference, metrics map[string]metric) result {
	return result{
		Correct:   ref.err == nil && t.failed == 0 && t.refused == 0 && len(t.digests) <= 1,
		Attempted: t.attempted,
		Failed:    t.failed + t.refused,
		Metrics:   metrics,
	}
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 42, "seed for the read set")
	seconds := flag.Int("seconds", 55, "measured seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err == nil && (*seconds < 1 || (*traced != 0 && *traced != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One simulation runs at a time, so one P holds the whole process:
	// set-up, samples and the garbage collector share the core they are
	// timed on, and a neighbour busy on the host's other core does not
	// reach the figures through marking done there.
	runtime.GOMAXPROCS(1)
	g, err := loadGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = tracedRun(w, *seed, d, g)
	} else {
		res = timedRun(w, *seed, d, g)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(w workload, seed int64, d time.Duration, g goldenFile) result {
	e, sts := setupRepeated(w, seed, nil)
	setups := pick(sts, setupTimes.total)
	ref := validate(e, g)
	// Peak memory is read here, after set-up and the checked live,
	// replayed and observed simulations: what a process that sets up
	// once and simulates the read set holds. The timed loop's hundreds
	// of simulations only add collector headroom, whose peak depends on
	// where collections fall and moved by up to 16% between runs.
	rss := maxRSSMB()

	t := newTally()
	var secs []float64
	deadline := time.Now().Add(d)
	for t.attempted == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		rep, err := e.run(w.mode(), nil, noParent)
		el := time.Since(t0).Seconds()
		if err != nil {
			t.refuse(err)
			continue
		}
		secs = append(secs, el)
		t.check(ref, rep)
	}

	m := map[string]metric{
		"setup_s":    {median(setups), "s"},
		"max_rss_mb": {rss, "MB"},
	}
	fmt.Printf("workload %s seed %d: %d reads, reference %d bp, %d timed samples\n", w.name, seed, len(e.reads), refLen, len(secs))
	if len(secs) > 0 {
		m["reads_per_s"] = metric{readsPerSec(len(e.reads), secs), "reads/s"}
		fmt.Printf("%-28s %-14s (fastest sample %.3f ms)\n", "reads_per_s", fmt.Sprintf("%.1f reads/s", m["reads_per_s"].Value), fastest(secs)*1e3)
		// The median and the tails are printed but not gated: every
		// sample does the same work, so how far they sit above the
		// fastest sample is set by the other tenants of a shared host.
		fmt.Printf("%-28s %-14s (median sample %.3f ms)\n", "reads_per_s.median", fmt.Sprintf("%.1f reads/s", medianReadsPerSec(len(e.reads), secs)), median(secs)*1e3)
		fmt.Printf("%-28s %-14s\n", "run_ms.p90", fmt.Sprintf("%.3f ms", percentile(secs, 90)*1e3))
		tv, pct, beyond := tail(secs)
		fmt.Printf("%-28s %-14s (p%.1f: %d of %d samples beyond it)\n", "run_ms.tail", fmt.Sprintf("%.3f ms", tv*1e3), pct, beyond, len(secs))
	}
	if ref.report != nil {
		m["sim_reads_per_s"] = metric{ref.report.ThroughputReadsPerSec, "reads/s"}
	}
	fmt.Printf("%-28s %-14s (median of %d set-ups)\n", "setup_s", fmt.Sprintf("%.4f s", m["setup_s"].Value), len(setups))
	fmt.Printf("%-28s %-14s\n", "max_rss_mb", fmt.Sprintf("%.1f MB", m["max_rss_mb"].Value))
	fmt.Printf("%-28s %-14s (modelled, unvalidated against hardware)\n", "sim_reads_per_s", fmt.Sprintf("%.0f reads/s", m["sim_reads_per_s"].Value))
	t.print(ref)
	return t.result(ref, m)
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
