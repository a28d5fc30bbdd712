package coordinator

import (
	"slices"
	"sort"

	"nvwa/internal/core"
	"nvwa/internal/extsched"
)

// IdleUnit describes one idle extension unit offered to an allocation
// round.
type IdleUnit struct {
	// ID is the unit's global index in the EU pool.
	ID int
	// Class is the unit's class index (into the pool's EUClasses).
	Class int
	// PEs is the unit's systolic-array width.
	PEs int
}

// Assignment pairs a hit with the unit that will extend it.
type Assignment struct {
	Hit  core.Hit
	Unit IdleUnit
}

// IDAssignment pairs an arena hit ID with the unit that will extend
// it — the Allocate result record. The hit payload stays in the arena
// until the dispatch path dereferences it into an Assignment.
type IDAssignment struct {
	ID   core.HitID
	Unit IdleUnit
}

// Strategy selects how hits are matched to idle units.
type Strategy int

const (
	// Grouped is NvWa's strategy (Fig. 10 steps 4-6): hits and units
	// are split into a small-class and a large-class group at the
	// pool's midpoint; within a group a hit takes its optimal class if
	// available, else the nearest idle class of the same group.
	Grouped Strategy = iota
	// Exclusive is the paper's basic method (1): a hit may only run on
	// its optimal class; other groups never help out.
	Exclusive
	// Shared is the paper's basic method (2): all units form one pool;
	// a hit takes any idle unit, preferring the optimal class but
	// falling back to anything (short hits may land on 128-PE units).
	Shared
	// FIFO is the unscheduled SUs+EUs baseline: hits are not sorted or
	// classified; each takes the first idle unit in ID order.
	FIFO
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Grouped:
		return "grouped"
	case Exclusive:
		return "exclusive"
	case Shared:
		return "shared"
	case FIFO:
		return "fifo"
	default:
		return "unknown"
	}
}

// Allocator is the Hits Allocator of Fig. 10.
type Allocator struct {
	classifier *extsched.Classifier
	classes    []core.EUClass
	strategy   Strategy
	splitClass int // first class of the "large" group
	// stats — measured against a canonical size ladder so a uniform
	// pool's misassignments are visible (Fig. 12(f) reports the
	// baseline at 14.5% even though it has a single class)
	statsSizes           []int
	optimal, nearOptimal int
	perClassOpt          []int
	perClassTotal        []int

	// Round scratch, reused across Allocate calls so a steady-state
	// round performs no heap allocation. The slices Allocate returns
	// alias assignedBuf/unallocBuf and are valid only until the next
	// Allocate call; callers that retain them across rounds must copy
	// (the accelerator consumes them within the round, guarded by its
	// roundActive flag).
	keyBuf      []int64
	idleBuf     unitsByID
	byClass     [][]IdleUnit
	heads       []int
	assignedBuf []IDAssignment
	unallocBuf  []core.HitID
}

// unitsByID sorts idle units ascending by ID. Unit IDs are unique, so
// the (unstable) sort is deterministic.
type unitsByID []IdleUnit

func (u unitsByID) Len() int           { return len(u) }
func (u unitsByID) Less(i, j int) bool { return u[i].ID < u[j].ID }
func (u unitsByID) Swap(i, j int)      { u[i], u[j] = u[j], u[i] }

// NewAllocator builds an allocator over the EU pool's classes.
func NewAllocator(classes []core.EUClass, strategy Strategy) *Allocator {
	sizes := make([]int, len(classes))
	for i, c := range classes {
		sizes[i] = c.PEs
	}
	return &Allocator{
		classifier:    extsched.NewClassifier(classes),
		classes:       classes,
		strategy:      strategy,
		splitClass:    (len(classes) + 1) / 2,
		statsSizes:    sizes,
		perClassOpt:   make([]int, len(classes)),
		perClassTotal: make([]int, len(classes)),
		byClass:       make([][]IdleUnit, len(classes)),
		heads:         make([]int, len(classes)),
	}
}

// SetStatsSizes measures assignment quality against a canonical PE
// ladder (e.g. 16/32/64/128) instead of the pool's own classes, so
// heterogeneous and uniform pools are judged on the same scale.
//
// Changing the ladder resets the whole quality ledger — the per-class
// tallies AND the optimal/near-optimal totals — so Stats() can never
// report totals that diverge from the per-class sums (the invariant
// Optimal+NearOptimal == sum(PerClassTotal)).
func (a *Allocator) SetStatsSizes(sizes []int) {
	a.statsSizes = append([]int(nil), sizes...)
	a.perClassOpt = make([]int, len(sizes))
	a.perClassTotal = make([]int, len(sizes))
	a.optimal = 0
	a.nearOptimal = 0
}

// statsClass returns the canonical class of a hit length.
func (a *Allocator) statsClass(hitLen int) int {
	for i, p := range a.statsSizes {
		if hitLen <= p {
			return i
		}
	}
	return len(a.statsSizes) - 1
}

// RoundLatency returns the cycle cost of one allocation round over a
// window of n hits: the nine Fig. 10 steps are pipelined, so the cost
// is a fixed pipeline depth plus one cycle per hit.
func RoundLatency(n int) int64 { return 9 + int64(n) }

// group returns the unit group of a class under the Grouped strategy.
func (a *Allocator) group(class int) int {
	if class < a.splitClass {
		return 0
	}
	return 1
}

// Allocate performs steps 2-6 of Fig. 10 on a window of arena hit
// IDs: compute each hit's extension length, sort by it, split into
// groups, and greedily match against the idle units. It returns the
// assignments and the hits left unallocated (in their post-sort order,
// ready for Commit).
//
// The round never touches Hit memory: it sorts packed
// (schedLen, windowPos) int64 keys — the scheduling length comes from
// the arena's dense side table — so the comparator moves 8-byte keys
// instead of 64-byte records, and the position half of the key keeps
// equal-length hits in window order (a stable sort, step 3).
//
// The returned slices alias the allocator's round scratch and are
// valid only until the next Allocate call; a warm allocator performs
// no heap allocation per round.
func (a *Allocator) Allocate(ar *core.HitArena, window []core.HitID, idle []IdleUnit) (assigned []IDAssignment, unallocated []core.HitID) {
	if len(window) == 0 {
		return nil, nil
	}
	keys := a.keyBuf[:0]
	for pos, id := range window {
		keys = append(keys, int64(ar.SchedLen(id))<<32|int64(pos))
	}
	if a.strategy != FIFO {
		slices.Sort(keys)
	}
	a.indexIdle(idle)

	asg := a.assignedBuf[:0]
	un := a.unallocBuf[:0]
	for _, k := range keys {
		schedLen := int(k >> 32)
		id := window[k&0xffffffff]
		unit, ok := a.selectUnit(a.classifier.OptimalClass(schedLen))
		if !ok {
			un = append(un, id)
			continue
		}
		asg = append(asg, IDAssignment{ID: id, Unit: unit})
		a.recordStats(schedLen, unit)
	}
	a.keyBuf = keys
	a.assignedBuf, a.unallocBuf = asg, un
	return asg, un
}

// indexIdle buckets the offered idle units by class. Sorting the pool
// by unique ID once keeps every class bucket ID-ordered (determinism)
// without per-class sorts; the System's idle scans already yield
// ID-ascending pools, so the common case is a verify pass with no
// swaps.
func (a *Allocator) indexIdle(idle []IdleUnit) {
	a.idleBuf = append(a.idleBuf[:0], idle...)
	if !sort.IsSorted(&a.idleBuf) {
		sort.Sort(&a.idleBuf)
	}
	for c := range a.byClass {
		a.byClass[c] = a.byClass[c][:0]
		a.heads[c] = 0
	}
	for _, u := range a.idleBuf {
		if u.Class >= 0 && u.Class < len(a.byClass) {
			a.byClass[u.Class] = append(a.byClass[u.Class], u)
		}
	}
}

// selectUnit applies the strategy's steps 4-6 for one hit whose
// optimal class is opt, consuming from the round's class buckets.
func (a *Allocator) selectUnit(opt int) (IdleUnit, bool) {
	switch a.strategy {
	case FIFO:
		// Any idle unit, ID order.
		bestClass, bestID := -1, 0
		for c := range a.byClass {
			if a.heads[c] < len(a.byClass[c]) {
				if id := a.byClass[c][a.heads[c]].ID; bestClass == -1 || id < bestID {
					bestClass, bestID = c, id
				}
			}
		}
		if bestClass >= 0 {
			return a.take(bestClass)
		}
	case Exclusive:
		return a.take(opt)
	case Shared:
		return a.takeNearest(opt, 0, len(a.classes))
	case Grouped:
		lo, hi := 0, a.splitClass
		if a.group(opt) == 1 {
			lo, hi = a.splitClass, len(a.classes)
		}
		if u, ok := a.takeNearest(opt, lo, hi); ok {
			return u, true
		}
		// The home group is exhausted: supplement from the
		// adjacent group (paper Sec. IV-D — "adjacent resources
		// can be supplemented to ensure scheduling efficiency
		// when some specific resources are limited"). The sort
		// in step 3 already gave same-group hits first pick, so
		// this disciplined spill differs from the "too
		// aggressive" fully-shared method (2).
		return a.takeNearest(opt, 0, len(a.classes))
	}
	return IdleUnit{}, false
}

// recordStats tallies one assignment against the canonical ladder.
func (a *Allocator) recordStats(schedLen int, unit IdleUnit) {
	sc := a.statsClass(schedLen)
	a.perClassTotal[sc]++
	if unit.PEs == a.statsSizes[sc] {
		a.optimal++
		a.perClassOpt[sc]++
	} else {
		a.nearOptimal++
	}
}

// take pops the lowest-ID idle unit of class c, if any. Buckets are
// consumed through per-class heads so their backing arrays survive the
// round for reuse.
func (a *Allocator) take(c int) (IdleUnit, bool) {
	if a.heads[c] >= len(a.byClass[c]) {
		return IdleUnit{}, false
	}
	u := a.byClass[c][a.heads[c]]
	a.heads[c]++
	return u, true
}

// takeNearest takes an idle unit for optimal class opt searching
// classes [lo, hi), preferring opt, then increasing distance with the
// larger class first (a short hit on a bigger unit costs less extra
// latency than a long hit on a smaller unit, Fig. 8 observation 3).
func (a *Allocator) takeNearest(opt, lo, hi int) (IdleUnit, bool) {
	if opt >= lo && opt < hi {
		if u, ok := a.take(opt); ok {
			return u, true
		}
	}
	for d := 1; d < hi-lo; d++ {
		if c := opt + d; c >= lo && c < hi {
			if u, ok := a.take(c); ok {
				return u, true
			}
		}
		if c := opt - d; c >= lo && c < hi {
			if u, ok := a.take(c); ok {
				return u, true
			}
		}
	}
	return IdleUnit{}, false
}

// Stats reports allocation quality: how many hits landed on their
// optimal class (overall and per class), the Fig. 12(e)/(f) metric.
type Stats struct {
	Optimal, NearOptimal int
	PerClassOptimal      []int
	PerClassTotal        []int
}

// Stats returns a copy of the allocator's counters.
func (a *Allocator) Stats() Stats {
	return Stats{
		Optimal:         a.optimal,
		NearOptimal:     a.nearOptimal,
		PerClassOptimal: append([]int(nil), a.perClassOpt...),
		PerClassTotal:   append([]int(nil), a.perClassTotal...),
	}
}

// OptimalFraction returns the fraction of assignments that used the
// optimal unit class.
func (s Stats) OptimalFraction() float64 {
	n := s.Optimal + s.NearOptimal
	if n == 0 {
		return 0
	}
	return float64(s.Optimal) / float64(n)
}
