package kernbench

import "testing"

// BenchmarkKernels runs every before/after kernel pair, e.g.
//
//	go test -bench 'BenchmarkKernels/align.Extend' ./internal/kernbench
func BenchmarkKernels(b *testing.B) {
	for _, c := range Cases() {
		if c.Before != nil {
			b.Run(c.Kernel+"/before", c.Before)
		}
		b.Run(c.Kernel+"/after", c.After)
	}
}

// TestCasesRun smoke-tests every benchmark body with b.N = 1 so a
// broken case fails `go test` rather than only `-bench`.
func TestCasesRun(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Kernel, func(t *testing.T) {
			for _, body := range []func(*testing.B){c.Before, c.After} {
				if body == nil {
					continue
				}
				testing.Benchmark(func(b *testing.B) {
					if b.N > 1 { // keep the smoke test cheap
						b.Skip()
					}
					body(b)
				})
			}
		})
	}
}
