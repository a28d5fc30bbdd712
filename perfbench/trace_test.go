package main

import "testing"

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	spans := []Span{
		{Name: "sample", Start: 0, End: 100, Parent: noParent},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a on [30, 40)
		{Name: "c", Start: 45, End: 48, Parent: 0},  // inside b
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past the parent's end
		{Name: "e", Start: 20, End: 25, Parent: 1},  // grandchild: a's child only
	}
	self := selfTimes(spans)
	// Children of the root cover [10, 50) and [90, 100): 50 ns.
	want := []int64{50, 25, 20, 3, 30, 5}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	self := selfTimes([]Span{{Start: 5, End: 17, Parent: noParent}})
	if self[0] != 12 {
		t.Fatalf("self = %d, want 12", self[0])
	}
}

func TestLayerMetricsSelfFractions(t *testing.T) {
	spans := []Span{
		{Name: "sample", Start: 0, End: 100, Parent: noParent, Sample: 0},
		{Name: "Aligner.SeedAndChain", Start: 0, End: 30, Parent: 0, Sample: 0},
		{Name: "Aligner.ExtendHitCost", Start: 30, End: 90, Parent: 0, Sample: 0},
		{Name: "System.Step", Start: 90, End: 98, Parent: 0, Sample: 0},
		// Outside any sample: counted per call, not in the fractions.
		{Name: "Aligner.SeedAndChain", Start: 200, End: 210, Parent: noParent, Sample: -1},
	}
	lt := layerMetrics(spans, 4)
	want := map[string]float64{"fmindex": 0.3, "align": 0.6, "accel": 0.08, "bench": 0.02}
	for l, w := range want {
		if d := lt.selfFrac[l] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("selfFrac[%s] = %v, want %v", l, lt.selfFrac[l], w)
		}
	}
	if got := lt.perCall["Aligner.SeedAndChain"]; got != 20 {
		t.Errorf("perCall SeedAndChain = %v, want 20", got)
	}
	if lt.nsPerEvent != 2 || lt.stepMs != 8e-6 {
		t.Errorf("nsPerEvent = %v, stepMs = %v, want 2 and 8e-6", lt.nsPerEvent, lt.stepMs)
	}
	if len(lt.coveredNs) != 1 || lt.coveredNs[0] != 98 || lt.sampleNs[0] != 100 {
		t.Errorf("sampleNs = %v, coveredNs = %v, want 100 and 98 for sample 0", lt.sampleNs, lt.coveredNs)
	}
}
