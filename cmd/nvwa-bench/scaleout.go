// Scale-out bench and guardrail for nvwa-bench: the BENCH_scaleout.json
// artifact (-scaleout-json) and the machine-independent merge checks
// (-scaleout-check).
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nvwa/internal/accel"
	"nvwa/internal/experiments"
)

// scaleoutPolicies is the policy sweep of the artifact: both static
// partitionings plus the work-stealing rebalancer they are compared
// against.
var scaleoutPolicies = []accel.ShardPolicy{
	accel.ShardContiguous, accel.ShardInterleaved, accel.ShardBalanced,
}

// scaleoutRow is one (policy, shard count) point of the
// BENCH_scaleout.json artifact: the merged simulation outcome plus the
// serial-versus-parallel wall-clock comparison for that point.
type scaleoutRow struct {
	Policy                string  `json:"policy"`
	Shards                int     `json:"shards"`
	MakespanCycles        int64   `json:"makespan_cycles"`
	MinShardCycles        int64   `json:"min_shard_cycles"`
	MaxShardCycles        int64   `json:"max_shard_cycles"`
	ThroughputReadsPerSec float64 `json:"throughput_reads_per_sec"`
	// su_util / eu_util are cycle-weighted; the _makespan pair
	// normalizes the same busy unit-cycles by S × makespan, which is
	// the figure the balance target is stated against.
	SUUtil         float64 `json:"su_util"`
	EUUtil         float64 `json:"eu_util"`
	SUUtilMakespan float64 `json:"su_util_makespan"`
	EUUtilMakespan float64 `json:"eu_util_makespan"`
	// Steals counts resolved steal events (balanced policy only).
	Steals     int     `json:"steals"`
	SerialMS   float64 `json:"serial_ms"`
	ParallelMS float64 `json:"parallel_ms"`
	Speedup    float64 `json:"speedup"`
	// Identical is the determinism check: the serial and parallel sweeps
	// of this point must produce equal result rows.
	Identical bool `json:"identical"`
}

// scaleoutFile is the BENCH_scaleout.json schema.
type scaleoutFile struct {
	GeneratedAt string        `json:"generated_at"`
	Host        benchHost     `json:"host"`
	Workload    benchWork     `json:"workload"`
	Policies    []string      `json:"policies"`
	Workers     int           `json:"workers"`
	Rows        []scaleoutRow `json:"rows"`
}

// runScaleoutBench sweeps every partitioning policy across the
// scale-out shard counts, timing each point under the serial and
// parallel runners, and writes the JSON artifact. The merged
// simulation outcome is deterministic (identical between the two runs
// — checked per point); only the wall-clock columns vary by host.
func runScaleoutBench(path string, env *experiments.Env,
	refLen int, seed int64, runner *experiments.Runner) error {
	if !runner.Parallel() {
		runner = experiments.NewRunner(runtime.NumCPU())
	}
	ser := experiments.Serial()
	par := runner

	out := scaleoutFile{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Host:        hostInfo(),
		Workload:    benchWork{RefLen: refLen, Reads: len(env.Reads), Seed: seed},
		Workers:     par.Workers(),
	}
	for _, pol := range scaleoutPolicies {
		out.Policies = append(out.Policies, pol.String())
	}
	fmt.Printf("%-11s %-6s %10s %12s %7s %7s %7s %7s %6s %10s %10s %8s %s\n",
		"policy", "shards", "makespan", "reads/s", "su-util", "eu-util",
		"su-mksp", "eu-mksp", "steals", "serial(ms)", "parall(ms)", "speedup", "identical")
	for _, pol := range scaleoutPolicies {
		for _, s := range experiments.DefaultScaleoutCounts {
			counts := []int{s}
			t0 := time.Now()
			serRes := experiments.Scaleout(env, counts, pol, ser)
			serialMS := float64(time.Since(t0).Microseconds()) / 1000
			t1 := time.Now()
			parRes := experiments.Scaleout(env, counts, pol, par)
			parallelMS := float64(time.Since(t1).Microseconds()) / 1000

			r := parRes.Rows[0]
			row := scaleoutRow{
				Policy:                pol.String(),
				Shards:                r.Shards,
				MakespanCycles:        r.Cycles,
				MinShardCycles:        r.MinShardCycles,
				MaxShardCycles:        r.MaxShardCycles,
				ThroughputReadsPerSec: r.ThroughputReadsPerSec,
				SUUtil:                r.SUUtil,
				EUUtil:                r.EUUtil,
				SUUtilMakespan:        r.SUUtilMakespan,
				EUUtilMakespan:        r.EUUtilMakespan,
				Steals:                r.Steals,
				SerialMS:              serialMS,
				ParallelMS:            parallelMS,
				Identical:             reflect.DeepEqual(serRes, parRes),
			}
			if parallelMS > 0 {
				row.Speedup = serialMS / parallelMS
			}
			out.Rows = append(out.Rows, row)
			fmt.Printf("%-11s %-6d %10d %12.0f %7.3f %7.3f %7.3f %7.3f %6d %10.1f %10.1f %7.2fx %v\n",
				row.Policy, row.Shards, row.MakespanCycles, row.ThroughputReadsPerSec,
				row.SUUtil, row.EUUtil, row.SUUtilMakespan, row.EUUtilMakespan,
				row.Steals, row.SerialMS, row.ParallelMS, row.Speedup, row.Identical)
		}
	}
	for _, row := range out.Rows {
		if !row.Identical {
			return fmt.Errorf("scaleout bench: %s S=%d serial and parallel sweeps diverged",
				row.Policy, row.Shards)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d policies × %d shard counts, j=%d)\n",
		path, len(scaleoutPolicies), len(experiments.DefaultScaleoutCounts), par.Workers())
	if out.Host.Note != "" {
		fmt.Fprintln(os.Stderr, "note:", out.Host.Note)
	}
	return nil
}

// scaleoutBalanceFloor is the -scaleout-check balance floor: the
// balanced policy's max-shard/mean-shard estimated-work ratio must not
// exceed this at S >= 4.
const scaleoutBalanceFloor = 1.10

// runScaleoutCheck is the machine-independent scale-out guardrail run
// by CI's perf-smoke job. It asserts, on the caller's workload:
//
//  1. the S=4 merged makespan equals the max shard makespan (the merge
//     models S concurrent chips, not a serialized sequence);
//  2. aggregate simulated throughput at S=4 exceeds the S=1 baseline
//     (scale-out must pay for itself in the simulated metric);
//  3. the MergeAcc reduction hot path (Reset + Add per shard report)
//     performs zero heap allocations in steady state;
//  4. the reused accumulator merges exactly like a fresh NewMergeAcc
//     (Reset leaves no state behind);
//  5. the balanced policy's steal planner meets its balance floor —
//     max-shard/mean-shard estimated work <= 1.10 at S=4 — and its
//     merged per-read Results are identical to the static policy's
//     (stealing moves reads, never changes their outcome).
//
// Every assertion is about simulated cycles, estimate-space sums, or
// allocation counts, so the check is stable on any host, including
// single-core CI runners.
func runScaleoutCheck(env *experiments.Env, pol accel.ShardPolicy) error {
	o := env.NvWaOptions()
	run := func(shards int, p accel.ShardPolicy) (*accel.Report, []*accel.Report, error) {
		sys, err := accel.NewSharded(env.Aligner, accel.ShardedOptions{
			Options: o, Shards: shards, Policy: p, Workers: runtime.NumCPU(),
		})
		if err != nil {
			return nil, nil, err
		}
		return sys.RunDetailed(env.Reads)
	}

	base, _, err := run(1, pol)
	if err != nil {
		return fmt.Errorf("scaleout-check: S=1: %w", err)
	}
	merged, parts, err := run(4, pol)
	if err != nil {
		return fmt.Errorf("scaleout-check: S=4: %w", err)
	}

	// 1. Makespan semantics: merged makespan == max shard makespan.
	var maxShard int64
	for _, p := range parts {
		if p.Cycles > maxShard {
			maxShard = p.Cycles
		}
	}
	if merged.Cycles != maxShard {
		return fmt.Errorf("scaleout-check: merged makespan %d != max shard makespan %d",
			merged.Cycles, maxShard)
	}

	// 2. Aggregate throughput grows with S.
	if merged.ThroughputReadsPerSec <= base.ThroughputReadsPerSec {
		return fmt.Errorf("scaleout-check: S=4 throughput %.0f <= S=1 throughput %.0f",
			merged.ThroughputReadsPerSec, base.ThroughputReadsPerSec)
	}

	// 3. Zero allocations in the merge reduction hot path. Warm the
	// accumulator once so its retained scratch reaches steady-state
	// capacity, then measure Reset+Add over the shard reports.
	acc := accel.NewMergeAcc()
	acc.Reset()
	for _, p := range parts {
		acc.Add(p)
	}
	allocs := testing.AllocsPerRun(100, func() {
		acc.Reset()
		for _, p := range parts {
			acc.Add(p)
		}
	})
	if allocs != 0 {
		return fmt.Errorf("scaleout-check: merge hot path allocates (%.1f allocs/op, want 0)", allocs)
	}

	// 4. The reused accumulator == a fresh one, field for field.
	fresh := accel.NewMergeAcc()
	for _, p := range parts {
		fresh.Add(p)
	}
	got := acc.Merged(o.Config.ClockGHz)
	if want := fresh.Merged(o.Config.ClockGHz); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("scaleout-check: reused MergeAcc result diverges from a fresh accumulator")
	}

	// 5. Balanced rebalancer floor: the steal planner must equalize
	// per-shard estimated work to within the floor, and stealing must
	// not change any read's outcome.
	est := accel.EstimateReadCosts(env.Aligner, env.Reads, runtime.NumCPU())
	const floorS = 4
	bparts, _ := accel.PlanBalanced(est, floorS)
	var total, maxPart float64
	for _, part := range bparts {
		var sum float64
		for _, g := range part {
			sum += est[g]
		}
		total += sum
		if sum > maxPart {
			maxPart = sum
		}
	}
	if mean := total / float64(floorS); mean > 0 {
		if ratio := maxPart / mean; ratio > scaleoutBalanceFloor {
			return fmt.Errorf("scaleout-check: balanced S=%d estimated-work balance %.3f exceeds floor %.2f",
				floorS, ratio, scaleoutBalanceFloor)
		}
	}
	balanced, _, err := run(floorS, accel.ShardBalanced)
	if err != nil {
		return fmt.Errorf("scaleout-check: balanced S=%d: %w", floorS, err)
	}
	staticRef, _, err := run(floorS, accel.ShardContiguous)
	if err != nil {
		return fmt.Errorf("scaleout-check: contiguous S=%d: %w", floorS, err)
	}
	if !reflect.DeepEqual(balanced.Results, staticRef.Results) {
		return fmt.Errorf("scaleout-check: balanced per-read Results diverge from contiguous (a steal changed an outcome)")
	}
	return nil
}
