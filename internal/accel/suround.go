package accel

import "nvwa/internal/su"

// SU seeding issues each seed-allocation site's reads as one pooled
// round vector — OCRA refills every idle SU in the same cycle — with
// the same reserved sequencing as the EU dispatch rounds in batch.go:
//
//   - Seq reservation. The round reserves one engine sequence number
//     per read up front (sim.ReserveSeqs) and keeps a single chained
//     task resident in the queue, re-pushing itself at each entry's
//     exact (ready, seq) via AtTaskSeq — so seed starts interleave with
//     every other event exactly as N individually scheduled seed-start
//     events would.
//   - Exact clocks. Round building consumes reads, resolves prefetcher
//     ready cycles, and marks units busy in unit order; each entry's
//     seed fire runs at exactly its ready cycle (inline coalescing only
//     merges same-cycle neighbours), so every su.Unit.Process call sees
//     the clock — and issues the HBM accesses — of its own read.
//   - Completion handoff. Each seed fire schedules its completion as a
//     suTask, drawing a fresh sequence number at that point in the
//     event stream, so completion ordering (and everything downstream:
//     Coordinator pushes, buffer switches, allocation rounds) follows
//     the seeding clocks alone.
//
// Seeding rounds only pool reads issued within a single event fire
// (the One-Cycle init burst, one Read-in-Batch issue, or a
// steady-state refill). Pooling across events — say, deferring a
// refill to ride along with a later round — would reorder su/HBM side
// effects, so a refill is a singleton round.

// suRoundEntry is one read's seed start: unit u seeds read idx
// beginning at cycle ready, ordered by the reserved seq.
type suRoundEntry struct {
	u     *su.Unit
	idx   int32
	ready int64
	seq   int64
}

// suRoundTask is the pooled event payload for one seed round: it fires
// once per entry in (ready, seq) order, re-arming itself with the next
// entry's reserved position, and recycles itself after the last.
type suRoundTask struct {
	s       *System
	entries []suRoundEntry
	next    int
}

// TaskKind implements sim.TaskKind for diagnostics.
func (t *suRoundTask) TaskKind() string { return "seed-round" }

// Fire implements sim.Task. Consecutive entries that start at the same
// cycle are fired inline without a queue round-trip: the reserved
// sequence numbers between two same-cycle neighbours all belong to
// entries of this round armed at other cycles (reservation blocks are
// disjoint, and events scheduled during seeding draw fresh, higher
// seqs), so no other event can be ordered between them.
func (t *suRoundTask) Fire() {
	s := t.s
	for {
		e := t.entries[t.next]
		t.next++
		if t.next == len(t.entries) {
			t.entries = t.entries[:0]
			t.next = 0
			s.seedRoundFree = append(s.seedRoundFree, t)
			s.fireSeed(e)
			return
		}
		if n := t.entries[t.next]; n.ready != e.ready {
			s.eng.AtTaskSeq(n.ready, n.seq, t)
			s.fireSeed(e)
			return
		}
		s.fireSeed(e)
	}
}

// fireSeed starts one read's seeding: run the unit's search, absorb
// any injected SU stall, and schedule the completion as a suTask.
func (s *System) fireSeed(e suRoundEntry) {
	hits, done := e.u.Process(s.eng.Now(), int(e.idx), s.reads[e.idx])
	if s.flt != nil {
		// Transient SU stall: the unit holds its result for the
		// injected extra cycles.
		if d := s.flt.inj.TakeSUStall(e.u.ID()); d > 0 {
			done += d
		}
	}
	s.eng.AtTask(done, s.getSUTask(e.u, int(e.idx), hits))
}

// getSeedRound takes a round task from the freelist or allocates one,
// its vector pre-sized to the SU pool (a round never seeds more reads
// than there are units).
func (s *System) getSeedRound() *suRoundTask {
	if n := len(s.seedRoundFree); n > 0 {
		t := s.seedRoundFree[n-1]
		s.seedRoundFree = s.seedRoundFree[:n-1]
		return t
	}
	return &suRoundTask{s: s, entries: make([]suRoundEntry, 0, len(s.sus))}
}

// collectSeed appends unit u's next read to the round under OCRA
// rules: failed units park, and input exhaustion stops the unit. Ready
// resolution and scheduling are left to armSeedRound, which performs
// them for the whole vector.
func (s *System) collectSeed(t *suRoundTask, u *su.Unit) {
	if s.flt != nil && s.flt.inj.SUFailed(u.ID()) {
		u.Stop()
		return
	}
	idx, ok := s.takeRead()
	if !ok {
		u.Stop()
		return
	}
	u.SetBusy(s.eng.Now() + 1)
	t.entries = append(t.entries, suRoundEntry{u: u, idx: int32(idx)})
}

// startAllOneCycle is the One-Cycle Read Allocator's t=0 burst as one
// round: every unit receives its first read in a single chained task.
func (s *System) startAllOneCycle() {
	t := s.getSeedRound()
	for _, u := range s.sus {
		s.collectSeed(t, u)
	}
	s.armSeedRound(t)
}

// armSeedRound resolves the round's ready cycles through the
// prefetcher's batched interface, reserves the entries' sequence
// block, sorts into the engine's (ready, seq) order, and arms the
// chain at the first slot. An empty round (all units parked) recycles
// immediately.
func (s *System) armSeedRound(t *suRoundTask) {
	n := len(t.entries)
	if n == 0 {
		s.seedRoundFree = append(s.seedRoundFree, t)
		return
	}
	now := s.eng.Now()
	idxs := s.seedIdxBuf[:0]
	for i := range t.entries {
		idxs = append(idxs, int(t.entries[i].idx))
	}
	s.seedIdxBuf = idxs
	ready := s.prefet.ReadyAtBatch(now+1, idxs, s.seedReadyBuf)
	s.seedReadyBuf = ready
	for i := range t.entries {
		r := ready[i]
		if s.flt != nil {
			r += s.flt.inj.MemDelay(r)
		}
		t.entries[i].ready = r
	}
	base := s.eng.ReserveSeqs(n)
	for i := range t.entries {
		t.entries[i].seq = base + int64(i)
	}
	sortSeedRound(t.entries)
	if o := s.opts.Obs; o != nil {
		o.SeedRound(now, n, t.entries[0].ready)
		s.observeSeedRound(now, t.entries)
	}
	s.eng.AtTaskSeq(t.entries[0].ready, t.entries[0].seq, t)
}

// observeSeedRound feeds the invariant checker one armed round.
func (s *System) observeSeedRound(now int64, entries []suRoundEntry) {
	readys := make([]int64, len(entries))
	seqs := make([]int64, len(entries))
	units := make([]int, len(entries))
	for i, e := range entries {
		readys[i], seqs[i], units[i] = e.ready, e.seq, e.u.ID()
	}
	s.opts.Obs.Inv.CheckSeedRound(now, readys, seqs, units)
}

// sortSeedRound orders a round by (ready, seq) — the engine's total
// order. Insertion sort, for the same reasons as sortBatch:
// vectors are at most NumSUs entries, nearly sorted already (seqs
// ascend in unit order and ready cycles mostly follow the prefetch
// batches), and the hot path must not allocate.
func sortSeedRound(e []suRoundEntry) {
	for i := 1; i < len(e); i++ {
		for j := i; j > 0 && (e[j].ready < e[j-1].ready ||
			(e[j].ready == e[j-1].ready && e[j].seq < e[j-1].seq)); j-- {
			e[j], e[j-1] = e[j-1], e[j]
		}
	}
}
