package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// noParent marks a root span.
const noParent = -1

// Span is one timed call into a layer, recorded around the call site
// in the benchmark's own code. Times are nanoseconds since the
// tracer's epoch. Spans of one sample share Sample; setup spans carry
// Sample −1.
type Span struct {
	Name       string
	Start, End int64
	Parent     int32
	Sample     int32
	Workload   string
}

// Dur is the span's wall time in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer holds spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced code paths pay one pointer test.
type Tracer struct {
	epoch    time.Time
	workload string
	sample   int32
	spans    []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{epoch: time.Now(), workload: workload, sample: -1}
}

// begin opens a span and returns its id.
func (t *Tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return noParent
	}
	t.spans = append(t.spans, Span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent,
		Sample: t.sample, Workload: t.workload})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *Tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
}

// setSample tags the spans that follow with a sample id.
func (t *Tracer) setSample(i int) {
	if t != nil {
		t.sample = int32(i)
	}
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its children cover. Children may overlap one another
// (or spill past the parent's end); covered time is the length of the
// union of their intervals clipped to the parent, so no instant is
// subtracted twice.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != noParent {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur() - covered(s.Start, s.End, kids[int32(i)])
	}
	return self
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write stores the spans as tab-separated lines (id, parent, sample,
// workload, name, start_ns, end_ns) under dir.
func (t *Tracer) write(dir string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.tsv", t.workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tsample\tworkload\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", i, s.Parent, s.Sample, s.Workload, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
