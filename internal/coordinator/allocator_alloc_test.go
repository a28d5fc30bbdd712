package coordinator

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nvwa/internal/core"
)

// TestAllocateWarmZeroAlloc asserts the round-scratch contract: a warm
// allocator performs no heap allocation per round.
func TestAllocateWarmZeroAlloc(t *testing.T) {
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		a := NewAllocator(testClasses, strat)
		var ar core.HitArena
		rng := rand.New(rand.NewSource(41))
		ids := make([]core.HitID, 24)
		for i := range ids {
			ids[i] = ar.Alloc(hit(i, 1+rng.Intn(200)))
		}
		idle := units(testClasses)
		a.Allocate(&ar, ids, idle) // warm
		allocs := testing.AllocsPerRun(100, func() {
			a.Allocate(&ar, ids, idle)
		})
		if allocs != 0 {
			t.Errorf("%v: warm Allocate performs %v allocs per round, want 0", strat, allocs)
		}
	}
}

// TestAllocateIDsWarmZeroAlloc extends the round-scratch contract to
// the round as the accelerator runs it: the window comes straight from
// a HitsBuffer's Processing Buffer, so the IDs alias the PB and the
// hits live in the buffer's arena. A warm Window + Allocate round must
// not touch the heap.
func TestAllocateIDsWarmZeroAlloc(t *testing.T) {
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		a := NewAllocator(testClasses, strat)
		b, ar := newBuffer(32, 0.75)
		rng := rand.New(rand.NewSource(41))
		for i := 0; i < 24; i++ {
			if !b.Push(hit(i, 1+rng.Intn(200))) {
				t.Fatalf("%v: push %d refused", strat, i)
			}
		}
		if !b.TrySwitch(false) {
			t.Fatalf("%v: switch refused at 24 of 32 hits", strat)
		}
		idle := units(testClasses)
		a.Allocate(ar, b.Window(24), idle) // warm
		allocs := testing.AllocsPerRun(100, func() {
			a.Allocate(ar, b.Window(24), idle)
		})
		if allocs != 0 {
			t.Errorf("%v: warm Window + Allocate performs %v allocs per round, want 0", strat, allocs)
		}
	}
}

// TestAllocateScratchReuseMatchesFresh replays identical rounds on a
// warm and a fresh allocator and demands identical outputs, so scratch
// reuse cannot leak state between rounds.
func TestAllocateScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		warm := NewAllocator(testClasses, strat)
		var ar core.HitArena
		for round := 0; round < 200; round++ {
			window := make([]core.Hit, rng.Intn(30))
			for i := range window {
				window[i] = hit(round*100+i, 1+rng.Intn(200))
			}
			ids := intern(&ar, window)
			all := units(testClasses)
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			idle := all[:rng.Intn(len(all)+1)]

			fresh := NewAllocator(testClasses, strat)
			wa, wu := warm.Allocate(&ar, ids, idle)
			fa, fu := fresh.Allocate(&ar, ids, idle)
			if !slices.Equal(wa, fa) || !slices.Equal(wu, fu) {
				t.Fatalf("%v round %d: warm (%+v, %v) vs fresh (%+v, %v)", strat, round, wa, wu, fa, fu)
			}
			for _, id := range ids {
				ar.Free(id)
			}
		}
	}
}

// TestAllocateStableTieBreak pins step 3's stable sort: hits with equal
// SchedLen keep their window order, both among the assignments and
// among the written-back unallocated hits, under Grouped, Exclusive
// and Shared; FIFO does not sort, so it keeps raw window order. Three
// hits per length against two units per class force each length class
// to split between assigned and unallocated, so a reversed or unstable
// tie order changes which hit waits.
func TestAllocateStableTieBreak(t *testing.T) {
	lens := []int{20, 7, 100, 20, 7, 100, 7, 20, 100}
	window := make([]core.Hit, len(lens))
	for i, l := range lens {
		window[i] = hit(i, l)
	}
	sorted := append([]core.Hit(nil), window...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].SchedLen() < sorted[j].SchedLen() })
	rank := map[int]int{} // ReadIdx -> position in the stable order
	for i, h := range sorted {
		rank[h.ReadIdx] = i
	}
	all := units(testClasses)
	idleSets := [][]IdleUnit{all, {all[0], all[2], all[3], all[6]}, {all[1], all[7]}}

	for _, strat := range []Strategy{Grouped, Exclusive, Shared, FIFO} {
		for k, idle := range idleSets {
			asg, un := allocate(NewAllocator(testClasses, strat), window, idle)
			if len(asg)+len(un) != len(window) {
				t.Fatalf("%v idle set %d: %d assigned + %d unallocated != %d", strat, k, len(asg), len(un), len(window))
			}
			var asgHits []core.Hit
			for _, a := range asg {
				asgHits = append(asgHits, a.Hit)
			}
			if strat == FIFO {
				// Every hit takes the next idle unit until none is left.
				if !reflect.DeepEqual(asgHits, window[:len(asg)]) || !reflect.DeepEqual(un, window[len(asg):]) {
					t.Errorf("FIFO idle set %d: assigned %v unallocated %v, want window order", k, asgHits, un)
				}
				continue
			}
			for _, part := range []struct {
				name string
				hits []core.Hit
			}{{"assigned", asgHits}, {"unallocated", un}} {
				for i := 1; i < len(part.hits); i++ {
					if rank[part.hits[i].ReadIdx] < rank[part.hits[i-1].ReadIdx] {
						t.Errorf("%v idle set %d: %s hits out of stable SchedLen order at %d: %v",
							strat, k, part.name, i, part.hits)
						break
					}
				}
			}
		}
	}
}
