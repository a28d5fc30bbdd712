package accel

import (
	"testing"

	"nvwa/internal/obs"
)

// A run under the full observability layer must pass every
// seed-round invariant (sorted chains, future-only fires, distinct
// units) and still produce the identical Report to an unobserved run.
func TestBatchedSUObservedInvariants(t *testing.T) {
	t.Parallel()
	a, reads := testWorkload(t, 120, 59)
	run := func(o *obs.Observer) *Report {
		opts := smallOpts()
		opts.Obs = o
		sys, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		return sys.Run(reads)
	}
	o := obs.New()
	observed := run(o)
	if err := o.Inv.Err(); err != nil {
		t.Fatalf("invariant violations: %v", err)
	}
	if o.Metrics.Counter("seedsched.rounds").Value() == 0 {
		t.Error("no seed rounds recorded by the observer")
	}
	plain := run(nil)
	if string(reportBytes(t, observed)) != string(reportBytes(t, plain)) {
		t.Error("observed report diverges from unobserved")
	}
}

// Seed-round vectors must respect the (ready, seq) heap order for any
// mix of ready cycles, including ties. sortSeedRound is the only
// ordering step between round building and the engine.
func TestSortSeedRoundOrdersByReadyThenSeq(t *testing.T) {
	t.Parallel()
	e := []suRoundEntry{
		{ready: 9, seq: 3}, {ready: 7, seq: 5}, {ready: 9, seq: 1},
		{ready: 7, seq: 4}, {ready: 12, seq: 0}, {ready: 7, seq: 2},
	}
	sortSeedRound(e)
	for i := 1; i < len(e); i++ {
		a, b := e[i-1], e[i]
		if a.ready > b.ready || (a.ready == b.ready && a.seq > b.seq) {
			t.Fatalf("entry %d (%d,%d) out of order after (%d,%d)",
				i, b.ready, b.seq, a.ready, a.seq)
		}
	}
}

// Steady-state batched seeding must stay allocation-free: round tasks,
// index/ready scratch, and completion tasks all recycle.
func TestBatchedSUSteadyStateZeroAlloc(t *testing.T) {
	a, reads := testWorkload(t, 60, 61)
	o := smallOpts()
	o.Memo = BuildMemo(a, nil, reads, 0)
	// Warm run sizes every freelist and scratch buffer.
	sys, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(reads)

	sys2, err := New(a, o)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1, func() {
		sys2.Run(reads)
	})
	// Same budget rationale as the batched-dispatch test: a full Run
	// allocates for results/report assembly, but the seeding machinery
	// itself must add nothing per read or per round.
	budget := float64(len(reads) + 600)
	if allocs > budget {
		t.Fatalf("Run allocated %.0f times, budget %.0f", allocs, budget)
	}
}
