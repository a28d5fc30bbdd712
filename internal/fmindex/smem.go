package fmindex

// SMEM is a supermaximal exact match: the read substring [ReadBeg,
// ReadEnd) occurs in the text and is not contained in any longer match
// that also occurs. Iv is the match's bi-interval in the index.
type SMEM struct {
	ReadBeg, ReadEnd int
	Iv               BiInterval
}

// Len returns the match length in bases.
func (s SMEM) Len() int { return s.ReadEnd - s.ReadBeg }

type smemEntry struct {
	iv  BiInterval
	end int
}
