package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/metrics"
)

func TestParallelMapOrderAndErrors(t *testing.T) {
	got, err := parallelMap(100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}

	// The lowest-index error wins regardless of which worker hits it first.
	boom := func(i int) (int, error) {
		if i%10 == 3 {
			return 0, fmt.Errorf("replication %d failed", i)
		}
		return i, nil
	}
	_, err = parallelMap(100, boom)
	if err == nil || err.Error() != "replication 3 failed" {
		t.Fatalf("err = %v, want replication 3's error", err)
	}

	if _, err := parallelMap(0, func(i int) (int, error) {
		return 0, errors.New("must not run")
	}); err != nil {
		t.Fatalf("n=0: %v", err)
	}
}

func TestParallelMapUsesWorkers(t *testing.T) {
	if maxWorkers < 2 {
		t.Skip("single-CPU machine")
	}
	// Rendezvous: every call waits inside f until a second worker has
	// entered f too, so overlap does not depend on how long f runs. The
	// timeout keeps a pool that never overlaps from hanging the test; it
	// then fails on the peak below.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	overlapped := make(chan struct{})
	var once sync.Once
	var inFlight, peak atomic.Int64
	_, err := parallelMap(maxWorkers*4, func(i int) (int, error) {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			old := peak.Load()
			if cur <= old || peak.CompareAndSwap(old, cur) {
				break
			}
		}
		if cur >= 2 {
			once.Do(func() { close(overlapped) })
		}
		select {
		case <-overlapped:
		case <-ctx.Done():
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Errorf("peak concurrency %d, want ≥ 2", peak.Load())
	}
}

// withWorkers runs f with the pool pinned to w workers.
func withWorkers(t *testing.T, w int, f func()) {
	t.Helper()
	old := maxWorkers
	maxWorkers = w
	defer func() { maxWorkers = old }()
	f()
}

func renderText(t *testing.T, tab *metrics.Table) string {
	t.Helper()
	var sb strings.Builder
	if err := tab.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestParallelSweepsMatchSequential is the acceptance check for the
// parallelized harness: for a fixed seed, every sweep must render
// byte-identical tables whether replications run on one worker or on all
// CPUs. Seeds are derived from replication indices and results are
// accumulated in index order, so the schedule must not be observable.
func TestParallelSweepsMatchSequential(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU machine: parallel and sequential are the same schedule")
	}

	render := func(t *testing.T) map[string]string {
		out := map[string]string{}

		fs, err := Sweep("det", Params{
			Sizes: []int{10, 16}, GraphsPerSize: 4, Events: 5,
			BaseSeed: 7, PerHop: 10 * time.Microsecond, Tc: 500 * time.Microsecond,
			Bursty: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["sweep/proposals"] = renderText(t, fs.Proposals)
		out["sweep/floodings"] = renderText(t, fs.Floodings)
		out["sweep/convergence"] = renderText(t, fs.Convergence)

		loss, err := Loss(LossParams{
			N: 12, DropRates: []float64{0, 0.05}, RunsPerPoint: 3, BaseSeed: 7, Events: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["loss"] = renderText(t, loss)

		tq, err := TreeQuality(TreeQualityParams{
			Sizes: []int{14}, GraphsPerSize: 4, Members: 5, BaseSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["treequality"] = renderText(t, tq)

		bl, err := Baselines(DefaultBaselineParams(), func(p *Params) {
			p.Sizes = []int{10}
			p.GraphsPerSize = 3
			p.Events = 4
			p.BaseSeed = 7
		})
		if err != nil {
			t.Fatal(err)
		}
		out["baselines"] = renderText(t, bl)

		bs, err := BurstScaling(BurstScalingParams{
			N: 12, BurstSizes: []int{2, 6}, RunsPerPoint: 3, BaseSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["burstscaling"] = renderText(t, bs)

		hier, err := Hierarchy(HierarchyParams{
			AreaCounts: []int{2, 3}, AreaSize: 6, RunsPerPoint: 2, EventsPerArea: 2, BaseSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		out["hierarchy"] = renderText(t, hier)
		return out
	}

	var seq, par map[string]string
	withWorkers(t, 1, func() { seq = render(t) })
	withWorkers(t, runtime.NumCPU(), func() { par = render(t) })

	for name, want := range seq {
		if got := par[name]; got != want {
			t.Errorf("%s: parallel output differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				name, want, got)
		}
	}
}
