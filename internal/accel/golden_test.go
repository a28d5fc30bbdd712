package accel

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nvwa/internal/coordinator"
	"nvwa/internal/fault"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_reports.json from this build's Reports")

const goldenPath = "testdata/golden_reports.json"

// goldenWorkloadDesc names the fixed workload the digests were taken
// over. It is stored in the golden file so a changed workload fails
// loudly instead of reading as a behaviour change.
const goldenWorkloadDesc = "testWorkload(120 reads, seed 71) on smallOpts; faults = fault.Spec{Seed: 5, Horizon: 20000, SUStalls: 3, SUFails: 1, EUStalls: 4, EUFails: 2} over S×16 SUs, S×10 EUs; S=1 via New, S=4 via NewSharded contiguous"

// goldenFile is the testdata schema: one digest per grid row.
type goldenFile struct {
	Workload string            `json:"workload"`
	Digests  map[string]string `json:"digests"`
}

// goldenCase is one cell of the golden grid.
type goldenCase struct {
	strat   coordinator.Strategy
	seed    SeedStrategy
	faulted bool
	shards  int
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s/%s/faults=%v/S=%d", c.strat, c.seed, c.faulted, c.shards)
}

// goldenResumeOf is the row whose run is also resumed from a mid-run
// checkpoint (row name + "/resume"); the resumed row must reproduce
// its digest.
var goldenResumeOf = goldenCase{coordinator.Grouped, OneCycle, true, 1}

// goldenGrid lists every row: allocator strategy × seed strategy ×
// fault plan × shard count.
func goldenGrid() []goldenCase {
	var grid []goldenCase
	for _, strat := range allStrategies {
		for _, seed := range []SeedStrategy{OneCycle, ReadInBatch} {
			for _, faulted := range []bool{false, true} {
				for _, shards := range []int{1, 4} {
					grid = append(grid, goldenCase{strat, seed, faulted, shards})
				}
			}
		}
	}
	return grid
}

func (c goldenCase) opts() Options {
	o := smallOpts()
	o.AllocStrategy = c.strat
	o.SeedStrategy = c.seed
	if c.faulted {
		o.Faults = fault.Spec{
			Seed: 5, Horizon: 20000,
			SUStalls: 3, SUFails: 1, EUStalls: 4, EUFails: 2,
		}.Generate(c.shards*o.Config.NumSUs, c.shards*o.Config.TotalEUs())
	}
	return o
}

// reportDigest is the first 8 bytes of the sha256 of the Report's
// JSON encoding, hex-encoded — the digest the repository benchmark
// records too.
func reportDigest(t *testing.T, r *Report) string {
	sum := sha256.Sum256(reportBytes(t, r))
	return hex.EncodeToString(sum[:8])
}

// runGoldenCase runs one grid row to completion. An unsharded run
// must also leave no hit interned in the arena.
func runGoldenCase(t *testing.T, a *pipeline.Aligner, reads []seq.Seq, c goldenCase, o Options) *Report {
	t.Helper()
	if c.shards == 1 {
		sys, err := New(a, o)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sys.RunChecked(reads)
		if err != nil {
			t.Fatal(err)
		}
		if live := sys.arena.Live(); live != 0 {
			t.Errorf("%s: arena leaked %d live hit IDs after the run", c.name(), live)
		}
		return rep
	}
	sys, err := NewSharded(a, ShardedOptions{Options: o, Shards: c.shards, Policy: ShardContiguous})
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := sys.RunDetailed(reads)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runGoldenResume steps an unsharded run, checkpoints it mid-run,
// restores the checkpoint into a fresh system and finishes from there.
func runGoldenResume(t *testing.T, a *pipeline.Aligner, reads []seq.Seq, o Options) *Report {
	t.Helper()
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	sys.Feed(reads)
	for i := 0; i < 3; i++ {
		done, err := sys.Step(2500)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if done {
			t.Fatal("run finished before the mid-run checkpoint")
		}
	}
	ck, err := sys.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	r, err := Restore(a, o, reads, ck)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	return finishFrom(t, r)
}

// TestGoldenReports pins what the simulator computes, not only that
// two code paths agree: every row of the grid must reproduce the
// Report digest committed in testdata/golden_reports.json. A
// deliberate behaviour change regenerates the file with
//
//	go test ./internal/accel -run TestGoldenReports -update
//
// and says so in the change log.
func TestGoldenReports(t *testing.T) {
	a, reads := testWorkload(t, 120, 71)

	got := map[string]string{}
	resumeName := goldenResumeOf.name() + "/resume"
	for _, c := range goldenGrid() {
		o := c.opts()
		got[c.name()] = reportDigest(t, runGoldenCase(t, a, reads, c, o))
		if c == goldenResumeOf {
			got[resumeName] = reportDigest(t, runGoldenResume(t, a, reads, o))
		}
	}
	if got[resumeName] != got[goldenResumeOf.name()] {
		t.Errorf("resumed run digest %s, uninterrupted run %s", got[resumeName], got[goldenResumeOf.name()])
	}

	path := filepath.FromSlash(goldenPath)
	if *updateGolden {
		b, err := json.MarshalIndent(goldenFile{Workload: goldenWorkloadDesc, Digests: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), path)
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want goldenFile
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if want.Workload != goldenWorkloadDesc {
		t.Fatalf("%s was recorded over %q, this test runs %q", path, want.Workload, goldenWorkloadDesc)
	}
	for name, d := range got {
		w, ok := want.Digests[name]
		switch {
		case !ok:
			t.Errorf("%s: no golden digest recorded (this build: %s)", name, d)
		case w != d:
			t.Errorf("%s: digest %s, golden %s", name, d, w)
		}
	}
	for name := range want.Digests {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden row no longer produced by the grid", name)
		}
	}
}
