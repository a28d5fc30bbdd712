package fmindex

// Reference implementations of the seeding pipeline, retained verbatim
// from before the Workspace path: per-call allocation of the traversal
// stacks and output slices, map-based dedup between passes, and plain
// stepwise search without the k-mer LUT jump-start. They are the
// differential-test oracles for the *WS variants.

// smem1 finds all SMEMs containing position x, appends them to out in
// order of decreasing end, and returns the next anchor position (the
// end of the longest match containing x).
func (b *BiIndex) smem1(r []byte, x, minIntv int, out *[]SMEM, st *Stats) int {
	ik := b.Single(r[x])
	if ik.Empty() {
		return x + 1
	}
	farEnd := x + 1
	var curr, prev []smemEntry

	// Forward phase: extend right, recording the interval each time the
	// occurrence count drops.
	for i := x + 1; i < len(r); i++ {
		ok := b.ExtendRight(ik, r[i], st)
		if ok.Size() != ik.Size() {
			curr = append(curr, smemEntry{ik, i})
			if ok.Size() < minIntv {
				break
			}
		}
		ik = ok
		farEnd = i + 1
	}
	if len(curr) == 0 || curr[len(curr)-1].end != farEnd {
		curr = append(curr, smemEntry{ik, farEnd})
	}
	// Reverse so longer matches (larger end, smaller interval) come
	// first in the backward sweep.
	for i, j := 0, len(curr)-1; i < j; i, j = i+1, j-1 {
		curr[i], curr[j] = curr[j], curr[i]
	}
	prev, curr = curr, prev[:0]

	// Backward phase: sweep left; when the longest surviving match can
	// no longer be extended it is supermaximal. lastBeg dedups outputs
	// within this invocation only.
	lastBeg := len(r) + 1
	for i := x - 1; i >= -1; i-- {
		c := -1
		if i >= 0 {
			c = int(r[i])
		}
		curr = curr[:0]
		for _, p := range prev {
			var ok BiInterval
			if c >= 0 {
				ok = b.ExtendLeft(p.iv, byte(c), st)
			}
			if c < 0 || ok.Size() < minIntv {
				if len(curr) == 0 && i+1 < lastBeg {
					*out = append(*out, SMEM{ReadBeg: i + 1, ReadEnd: p.end, Iv: p.iv})
					lastBeg = i + 1
				}
			} else if len(curr) == 0 || ok.Size() != curr[len(curr)-1].iv.Size() {
				curr = append(curr, smemEntry{ok, p.end})
			}
		}
		if len(curr) == 0 {
			break
		}
		prev, curr = curr, prev
	}
	return farEnd
}

// findSMEMsReference is the original FindSMEMs: allocating traversal,
// post-filter by minimum length.
func (b *BiIndex) findSMEMsReference(r []byte, minLen int, st *Stats) []SMEM {
	var out []SMEM
	x := 0
	for x < len(r) {
		x = b.smem1(r, x, 1, &out, st)
	}
	keep := out[:0]
	for _, s := range out {
		if s.Len() >= minLen {
			keep = append(keep, s)
		}
	}
	return keep
}

// findSMEMsReseedReference is the original FindSMEMsReseed with its
// map-based dedup.
func (b *BiIndex) findSMEMsReseedReference(r []byte, minLen, splitLen, splitWidth int, st *Stats) []SMEM {
	out := b.findSMEMsReference(r, minLen, st)
	first := out
	seen := make(map[[2]int]bool, len(out))
	for _, s := range out {
		seen[[2]int{s.ReadBeg, s.ReadEnd}] = true
	}
	for _, s := range first {
		if s.Len() < splitLen || s.Iv.Size() > splitWidth {
			continue
		}
		mid := (s.ReadBeg + s.ReadEnd) / 2
		var extra []SMEM
		b.smem1(r, mid, s.Iv.Size()+1, &extra, st)
		for _, e := range extra {
			key := [2]int{e.ReadBeg, e.ReadEnd}
			if e.Len() >= minLen && !seen[key] {
				seen[key] = true
				out = append(out, e)
			}
		}
	}
	return out
}

// repeatSeedsReference is the original RepeatSeeds (fresh output slice
// per call).
func (b *BiIndex) repeatSeedsReference(r []byte, minLen, maxIntv int, st *Stats) []SMEM {
	var out []SMEM
	x := 0
	for x+minLen <= len(r) {
		ik := b.Single(r[x])
		if ik.Empty() {
			x++
			continue
		}
		next := len(r)
		for i := x + 1; i < len(r); i++ {
			ok := b.ExtendRight(ik, r[i], st)
			if ok.Size() < maxIntv && i-x >= minLen {
				if ik.Size() > 0 {
					out = append(out, SMEM{ReadBeg: x, ReadEnd: i, Iv: ik})
				}
				next = i + 1
				break
			}
			ik = ok
		}
		x = next
	}
	return out
}

// SeedsReference is the original three-pass Seeds: allocating seeding
// passes, map-based dedup, and a fresh location slice per SMEM.
func (s *Seeder) SeedsReference(r []byte, minLen, maxOcc, maxMemIntv int, st *Stats) []Seed {
	smems := s.bi.findSMEMsReseedReference(r, minLen, minLen*3/2, 10, st)
	if maxMemIntv > 0 {
		seen := make(map[[2]int]bool, len(smems))
		for _, m := range smems {
			seen[[2]int{m.ReadBeg, m.ReadEnd}] = true
		}
		for _, m := range s.bi.repeatSeedsReference(r, minLen, maxMemIntv, st) {
			if !seen[[2]int{m.ReadBeg, m.ReadEnd}] {
				smems = append(smems, m)
			}
		}
	}
	var out []Seed
	for _, m := range smems {
		l := m.Len()
		for _, pos := range s.bi.fwd.LocateAllInto(nil, m.Iv.Fwd, maxOcc, st) {
			switch {
			case pos+l <= s.n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: pos, Rev: false, Count: m.Iv.Size()})
			case pos >= s.n:
				out = append(out, Seed{ReadBeg: m.ReadBeg, ReadEnd: m.ReadEnd, RefPos: 2*s.n - pos - l, Rev: true, Count: m.Iv.Size()})
			default:
			}
		}
	}
	return out
}
