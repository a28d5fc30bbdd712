package fmindex

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestLUTConstructionBounds pins the constructor validation: k below 1,
// above the table bound, or above the text length is rejected; valid k
// builds a full table.
func TestLUTConstructionBounds(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	bi := NewBi(randText(rng, 300))
	for _, k := range []int{0, -1, maxLUTK + 1} {
		if _, err := BuildKmerLUT(bi, k); err == nil {
			t.Errorf("BuildKmerLUT(k=%d): no error", k)
		}
	}
	tiny := NewBi([]byte{0, 1, 2})
	if _, err := BuildKmerLUT(tiny, 4); err == nil {
		t.Error("BuildKmerLUT(k=4) over a 3-base text: no error")
	}
	l, err := BuildKmerLUT(bi, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.K() != 3 || l.Entries() != 64 {
		t.Fatalf("k=%d entries=%d, want 3/64", l.K(), l.Entries())
	}
	// BuildLUT(0) on a too-short text cleanly disables the table.
	short := NewBi([]byte{0, 1, 2, 0, 1})
	if err := short.BuildLUT(0); err != nil {
		t.Fatal(err)
	}
	if short.LUT() != nil {
		t.Error("BuildLUT(0) on a 5-base text: expected no table")
	}
}

// TestDefaultLUTK pins the adaptive default: the largest k with
// 4^k <= textLen, capped at maxLUTK, disabled below k=2.
func TestDefaultLUTK(t *testing.T) {
	t.Parallel()
	cases := []struct{ n, k int }{
		{0, 0}, {1, 0}, {15, 0}, {16, 2}, {63, 2}, {64, 3},
		{100001, 8}, {1 << 24, 12}, {1 << 40, 12},
	}
	for _, c := range cases {
		if got := DefaultLUTK(c.n); got != c.k {
			t.Errorf("DefaultLUTK(%d) = %d, want %d", c.n, got, c.k)
		}
	}
}

// TestLUTIntervalMatchesStepwise checks every table entry against the
// stepwise right-extension chain: non-empty patterns must match the
// chain's interval exactly, and entries under an absent prefix must at
// least agree on emptiness (their positions are unobservable by
// construction; see the lut.go package comment).
func TestLUTIntervalMatchesStepwise(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	bi := NewBi(repeatText(rng, 500))
	const k = 4
	l, err := BuildKmerLUT(bi, k)
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, k)
	for code := 0; code < l.Entries(); code++ {
		for i := 0; i < k; i++ {
			p[i] = byte(code>>(2*(k-1-i))) & 3
		}
		want := bi.Single(p[0])
		for i := 1; i < k; i++ {
			want = bi.ExtendRight(want, p[i], nil)
		}
		got := l.Interval(p)
		if want.Empty() {
			if !got.Empty() {
				t.Fatalf("pattern %v: table %v, want empty", p, got)
			}
			continue
		}
		if got != want {
			t.Fatalf("pattern %v: table %v, want %v", p, got, want)
		}
	}
}

// TestCountLUTMatchesCount drives the jump-started counter against
// plain backward search over present and absent patterns, including
// lengths below, at, and above k (the short-pattern fallback).
func TestCountLUTMatchesCount(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(37))
	text := repeatText(rng, 2000)
	bi := NewBi(text)
	if err := bi.BuildLUT(5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(24)
		var p []byte
		if rng.Intn(4) == 0 {
			p = randText(rng, n) // mostly absent
		} else {
			off := rng.Intn(len(text) - n)
			p = text[off : off+n]
		}
		if got, want := bi.CountLUT(p, nil), bi.fwd.Count(p, nil); got != want {
			t.Fatalf("pattern len %d: CountLUT %d, Count %d", n, got, want)
		}
	}
}

// TestFastSeedsToggleIdentical is the core LUT contract: seeds AND
// Stats from workspace seeding with the jump-start equal the same
// seeder with its table detached and the original reference, over
// reads spanning the boundary cases — shorter than k, shorter than
// minLen, minLen below k (jump disabled), and regular reads.
func TestFastSeedsToggleIdentical(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	text := repeatText(rng, 3000)
	sd := NewSeeder(text)
	if sd.Bi().LUT() == nil {
		t.Fatal("expected a default LUT on a 3000-base reference")
	}
	lut := sd.Bi().LUT()
	k := lut.K()
	var ws Workspace
	lengths := []int{1, 2, k - 1, k, k + 1, 14, 15, 40, 101}
	for i := 0; i < 200; i++ {
		n := lengths[i%len(lengths)]
		r := drawRead(rng, text, n)
		minLen := 1 + rng.Intn(20) // sometimes below k: jump must bow out
		var stFast, stSlow, stRef Stats
		fast := append([]Seed(nil), sd.SeedsWS(&ws, r, minLen, 16, 8, &stFast)...)
		sd.bi.lut = nil // plain stepwise search
		slow := append([]Seed(nil), sd.SeedsWS(&ws, r, minLen, 16, 8, &stSlow)...)
		sd.bi.lut = lut
		ref := sd.SeedsReference(r, minLen, 16, 8, &stRef)
		if !seedsEqual(fast, slow) || !seedsEqual(fast, ref) {
			t.Fatalf("read len %d minLen %d: seeds diverge\nfast=%v\nslow=%v\nref=%v",
				n, minLen, fast, slow, ref)
		}
		if stFast != stSlow || stFast != stRef {
			t.Fatalf("read len %d minLen %d: stats diverge fast=%+v slow=%+v ref=%+v",
				n, minLen, stFast, stSlow, stRef)
		}
	}
}

func seedsEqual(a, b []Seed) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRebuildLUTKMatchesDefault double-checks that the seeder's
// auto-built table equals an explicitly requested one.
func TestRebuildLUTKMatchesDefault(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(53))
	text := repeatText(rng, 1000)
	sd := NewSeeder(text)
	auto := sd.Bi().LUT()
	want := DefaultLUTK(2 * len(text))
	if auto == nil || auto.K() != want {
		t.Fatalf("auto LUT k = %v, want %d", auto, want)
	}
	explicit, err := BuildKmerLUT(sd.Bi(), want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto.ivs, explicit.ivs) {
		t.Fatal("auto-built table differs from explicit build")
	}
}

// TestLUTEngagesAtSeedingScale pins that the adaptive default table is
// built and usable by the seeding passes at the default 15-base minimum
// seed length on a reference the size of the kernel benchmark's
// seeding workload (50 kbp, 100 kbp indexed with its reverse
// complement). CountLUT and RepeatSeedsWS silently fall back to plain
// stepwise search when lutFor returns nil, so only this check catches
// a jump-start that stopped engaging.
func TestLUTEngagesAtSeedingScale(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(59))
	sd := NewSeeder(repeatText(rng, 50000))
	if sd.Bi().lutFor(15) == nil {
		t.Fatalf("lutFor(15) = nil on a 50 kbp reference (LUT %v)", sd.Bi().LUT())
	}
}

// TestFastSeedsZeroAlloc pins the 0 allocs/op contract of the
// interleaved+LUT path on a warm workspace.
func TestFastSeedsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	text := repeatText(rng, 4000)
	sd := NewSeeder(text)
	reads := make([][]byte, 16)
	for i := range reads {
		reads[i] = drawRead(rng, text, 101)
	}
	var ws Workspace
	var st Stats
	for _, r := range reads {
		sd.SeedsWS(&ws, r, 15, 16, 8, &st) // warm
	}
	n := 0
	allocs := testing.AllocsPerRun(50, func() {
		n += len(sd.SeedsWS(&ws, reads[n%len(reads)], 15, 16, 8, &st))
	})
	if allocs != 0 {
		t.Fatalf("fast SeedsWS allocates %.1f/op on a warm workspace", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		n += sd.Bi().CountLUT(reads[n%len(reads)][:20], &st)
	})
	if allocs != 0 {
		t.Fatalf("CountLUT allocates %.1f/op", allocs)
	}
}
