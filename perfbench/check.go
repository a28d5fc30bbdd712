package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"nvwa/internal/accel"
)

// goldenJSON records, per workload and seed, the digest of the Report
// the simulation must produce, so drift in simulated results fails the
// run loudly instead of moving a number quietly.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Digests map[string]map[string]string `json:"digests"`
}

func loadGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// golden returns the recorded digest for (workload, seed), if any.
func (g goldenFile) golden(workload string, seed int64) (string, bool) {
	d, ok := g.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// digest fingerprints every field of a Report.
func digest(r *accel.Report) string {
	b, err := json.Marshal(r)
	if err != nil {
		// A Report holds only numbers, strings and slices of them.
		panic(fmt.Sprintf("perfbench: marshal report: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// reference is the checked outcome every timed sample must reproduce.
type reference struct {
	report *accel.Report
	digest string
	sys    *accel.System // the system that produced report, for counters
	err    error         // why the reference is wrong; nil if it passed
	golden string        // "match", "none recorded" or the mismatch
}

// validate simulates the read set live, replayed and observed (all
// untimed) and checks that:
//   - every Report.Results[i] equals Aligner.Align(i, read) on Found,
//     Score, Hits and RefBeg;
//   - the live, replayed and observed Reports are identical;
//   - the invariant checker saw no violation;
//   - the digest matches the one recorded for this seed, if any.
//
// It returns the Report of the workload's own mode as the reference.
func validate(e *env, g goldenFile) reference {
	ref := reference{golden: "none recorded"}
	if e.memo == nil {
		e.buildMemo(nil)
	}
	outs := map[mode]*reportOut{}
	for _, m := range []mode{{}, {replay: true}, {replay: true, observed: true}} {
		out, err := e.run(m, nil, noParent)
		if err != nil {
			ref.err = err
			return ref
		}
		if out.obs != nil {
			if err := out.obs.Inv.Err(); err != nil {
				ref.err = fmt.Errorf("invariants: %w", err)
				return ref
			}
		}
		outs[m] = out
	}
	own := e.w.mode()
	ref.report, ref.sys = outs[own].report, outs[own].sys
	ref.digest = digest(ref.report)
	for m, out := range outs {
		if d := digest(out.report); d != ref.digest {
			ref.err = fmt.Errorf("report of mode %+v (digest %s) differs from mode %+v (digest %s)", m, d, own, ref.digest)
			return ref
		}
	}
	if err := checkResults(e, ref.report); err != nil {
		ref.err = err
		return ref
	}
	if want, ok := g.golden(e.w.name, e.seed); ok {
		if want != ref.digest {
			ref.golden = fmt.Sprintf("MISMATCH: recorded %s", want)
			ref.err = fmt.Errorf("report digest %s differs from the %s recorded for seed %d", ref.digest, want, e.seed)
			return ref
		}
		ref.golden = "match"
	}
	return ref
}

// checkResults compares the accelerator's per-read outcome with the
// software aligner's.
func checkResults(e *env, r *accel.Report) error {
	if len(r.Results) != len(e.reads) {
		return fmt.Errorf("report has %d results for %d reads", len(r.Results), len(e.reads))
	}
	bad, first := 0, -1
	for i, read := range e.reads {
		want := e.aligner.Align(i, read)
		got := r.Results[i]
		if got.Found != want.Found || got.Score != want.Score || got.Hits != want.Hits || got.RefBeg != want.RefBeg {
			if first < 0 {
				first = i
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d results differ from Aligner.Align (first: read %d)", bad, len(e.reads), first)
	}
	return nil
}
