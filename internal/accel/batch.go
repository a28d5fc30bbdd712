package accel

import (
	"math/bits"

	"nvwa/internal/coordinator"
	"nvwa/internal/core"
	"nvwa/internal/eu"
	"nvwa/internal/pipeline"
	"nvwa/internal/seq"
)

// EU dispatch runs each allocation round's assignments as one pooled
// hit vector — the Hits Allocator hands a whole window to the idle EUs
// in one round (Fig. 10) — the way the HLS exemplars batch
// JOBS_PER_BATCH alignments per kernel invocation:
//
//   - Seq reservation. The round reserves one engine sequence number
//     per assignment up front (sim.ReserveSeqs) and keeps a single
//     chained task resident in the queue, re-pushing itself at each
//     completion's exact (cycle, seq) via AtTaskSeq — so completions
//     interleave with every other event exactly as N individually
//     scheduled completion events would, and the schedule stays a
//     pure function of the assignment order, which checkpoint replay
//     relies on.
//   - O(1) trigger consults. The per-completion Allocate Trigger
//     consult reads the maintained idle-EU counter instead of
//     re-scanning the whole pool — the scan would be the dominant
//     per-completion cost at 70 EUs, and it runs once per completion
//     plus once per fired round.
type batchEntry struct {
	u    *eu.Unit
	done int64
	seq  int64
	idx  int32 // index into the chain's parallel extension vector
}

// batchTask is the pooled event payload for a whole dispatch round's
// completion vector: it fires once per entry in (done, seq) order,
// re-arming itself with the next entry's reserved position, and
// recycles itself after the last. Extension results live in a parallel
// vector indexed by batchEntry.idx so the sort moves 32-byte keys, not
// whole Extension records.
type batchTask struct {
	s       *System
	entries []batchEntry
	exts    []core.Extension
	next    int
}

// TaskKind implements sim.TaskKind for diagnostics.
func (t *batchTask) TaskKind() string { return "batch" }

// Fire implements sim.Task. Consecutive entries that complete at the
// same cycle are fired inline without a queue round-trip: the reserved
// sequence numbers between two same-cycle neighbours all belong to
// already-fired entries of this chain (reservation blocks are
// disjoint, and events scheduled during processing draw fresh, higher
// seqs), so no other event can be ordered between them.
func (t *batchTask) Fire() {
	s := t.s
	for {
		e := t.entries[t.next]
		ext := t.exts[e.idx]
		t.next++
		if t.next == len(t.entries) {
			t.entries = t.entries[:0]
			t.exts = t.exts[:0]
			t.next = 0
			s.batchFree = append(s.batchFree, t)
			s.euDone(e.u, ext)
			return
		}
		if n := t.entries[t.next]; n.done != e.done {
			s.eng.AtTaskSeq(n.done, n.seq, t)
			s.euDone(e.u, ext)
			return
		}
		s.euDone(e.u, ext)
	}
}

// getBatchTask takes a task from the freelist or allocates one, with
// both vectors pre-sized to the allocation window (a round never
// assigns more than AllocBatch hits).
func (s *System) getBatchTask() *batchTask {
	if n := len(s.batchFree); n > 0 {
		t := s.batchFree[n-1]
		s.batchFree = s.batchFree[:n-1]
		return t
	}
	n := s.opts.Config.AllocBatch
	return &batchTask{
		s:       s,
		entries: make([]batchEntry, 0, n),
		exts:    make([]core.Extension, 0, n),
	}
}

// dispatchBatch starts one round's extension tasks as a single pooled
// vector, in assignment order, then sorts the completion vector into
// (done, seq) order and arms the chained task at the first slot.
func (s *System) dispatchBatch(assigned []coordinator.Assignment) {
	now := s.eng.Now()
	t := s.getBatchTask()
	base := s.eng.ReserveSeqs(len(assigned))
	entries := t.entries[:0]
	exts := t.exts[:0]
	for i, a := range assigned {
		u := s.eus[a.Unit.ID]
		if o := s.opts.Obs; o != nil {
			o.MemoLookup(s.memo != nil)
		}
		var oriented seq.Seq
		if s.memo != nil {
			// Replay mode: reuse the cached oriented view instead of
			// reallocating a reverse complement per dispatch.
			oriented = s.memo.Oriented(a.Hit.ReadIdx, a.Hit.Rev)
		} else {
			oriented = pipeline.Orient(s.reads[a.Hit.ReadIdx], a.Hit.Rev)
		}
		ext, done := u.Execute(now, oriented, a.Hit)
		if s.flt != nil {
			// Transient EU stall: the unit holds its result for the
			// injected extra cycles.
			if d := s.flt.inj.TakeEUStall(u.ID()); d > 0 {
				done += d
			}
		}
		entries = append(entries, batchEntry{u: u, done: done, seq: base + int64(i), idx: int32(i)})
		exts = append(exts, ext)
	}
	t.entries, t.exts = entries, exts
	sortBatch(entries)
	s.eng.AtTaskSeq(entries[0].done, entries[0].seq, t)
}

// sortBatch orders a completion vector by (done, seq) — the engine's
// total order. Insertion sort: vectors are at most AllocBatch
// entries, nearly sorted already (seqs ascend in assignment order),
// and the hot path must not allocate (sort.Sort would box the slice).
func sortBatch(e []batchEntry) {
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && (e[j].done < e[j-1].done ||
			(e[j].done == e[j-1].done && e[j].seq < e[j-1].seq)); j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}

// euSetBusy, euSetIdle, and euStopIdle wrap the EU state transitions
// so the idle-pool counter and bitmask stay exact.
func (s *System) euSetBusy(u *eu.Unit, now int64) {
	s.idleEUCount--
	id := u.ID()
	s.idleMask[id>>6] &^= 1 << (uint(id) & 63)
	u.SetBusy(now)
}

func (s *System) euSetIdle(u *eu.Unit, now int64) {
	s.idleEUCount++
	id := u.ID()
	s.idleMask[id>>6] |= 1 << (uint(id) & 63)
	u.SetIdle(now)
}

// euStopIdle parks a currently idle unit (fault degradation).
func (s *System) euStopIdle(u *eu.Unit) {
	s.idleEUCount--
	id := u.ID()
	s.idleMask[id>>6] &^= 1 << (uint(id) & 63)
	u.Stop()
}

// idleEUs lists the currently idle extension units, rebuilt from the
// maintained bitmask instead of scanning every unit's state: bits
// iterate in ID order and the per-ID descriptors are fixed at
// construction. The returned slice aliases a per-system scratch
// buffer, valid until the next idleEUs call; every caller consumes it
// synchronously (the allocator copies the pool into its own round
// scratch).
func (s *System) idleEUs() []coordinator.IdleUnit {
	idle := s.idleBuf[:0]
	for w, word := range s.idleMask {
		base := w << 6
		for word != 0 {
			id := base + bits.TrailingZeros64(word)
			word &= word - 1
			idle = append(idle, s.euTable[id])
		}
	}
	s.idleBuf = idle
	return idle
}
