package main

import (
	"fmt"
	"runtime"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/explore"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// check_ring5 explores `ring -n 5 -scenario join@0,join@2` exhaustively;
// its state space is exact, so any change in it is a checker bug.
const (
	checkStates         = 10533
	checkTransitions    = 48798
	checkSetupBlocks    = 7
	checkSetupsPerBlock = 3000
)

// checkInput builds the checked system: a 5-switch ring and two concurrent
// joins on conn 1. The seed does not enter it: the search explores every
// interleaving, so there is no input left to vary.
func checkInput(alg route.Algorithm) (explore.Config, explore.Scenario, error) {
	g, err := topo.Ring(5, 5*time.Microsecond)
	if err != nil {
		return explore.Config{}, explore.Scenario{}, err
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	scn := explore.Scenario{Injects: []explore.Inject{{Switch: 0, Event: join}, {Switch: 2, Event: join}}}
	return explore.Config{Graph: g, Algorithm: alg}, scn, nil
}

// search is one completed exhaustive search.
type search struct {
	stats explore.Stats
	wall  time.Duration
	proc  procDelta
}

// exhaustive runs one search from a collected heap, so every search meets
// the same garbage collector state.
func exhaustive(cfg explore.Config, scn explore.Scenario, opt explore.Options) (search, error) {
	runtime.GC()
	p0 := sampleProc()
	start := time.Now()
	r, err := explore.Exhaustive(cfg, scn, opt)
	if err != nil {
		return search{}, err
	}
	s := search{stats: r.Stats, wall: time.Since(start), proc: p0.to(sampleProc())}
	if r.Violation != nil {
		return s, fmt.Errorf("violation: %v", r.Violation.Err)
	}
	return s, nil
}

// runCheck is the check_ring5 workload: complete exhaustive searches of the
// real core.Machine, repeated until the window has elapsed.
func runCheck(cfg runConfig) (*result, error) {
	var spans *recorder
	if cfg.trace {
		spans = newRecorder()
	}
	res := newResult("none", spans)

	// Set-up is building the topology, the scenario and the initial world:
	// some 20 µs, whose speed on a shared host flips between two levels
	// every few milliseconds. Each block's mean spans many flips, and the
	// median of the blocks is reported.
	var setupTimes []float64
	for b := 0; b < checkSetupBlocks; b++ {
		start := time.Now()
		for i := 0; i < checkSetupsPerBlock; i++ {
			ecfg, scn, err := checkInput(route.SPH{})
			if err == nil {
				_, err = explore.NewWorld(ecfg, scn)
			}
			if err != nil {
				return nil, err
			}
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds()/checkSetupsPerBlock)
	}
	res.metrics["setup_s"] = median(setupTimes)

	ecfg, scn, err := checkInput(route.SPH{})
	if err != nil {
		return nil, err
	}
	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	var plain []search
	var failed uint64
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < window {
		s, err := exhaustive(ecfg, scn, explore.Options{})
		if err != nil {
			failed++
			res.check(false, "check_ring5: %v", err)
			break
		}
		checkCounts(res, s.stats)
		plain = append(plain, s)
	}
	var rates, walls []float64
	var cpu, states float64
	for _, s := range plain {
		rates = append(rates, float64(s.stats.States)/s.wall.Seconds())
		walls = append(walls, ms(s.wall))
		cpu += s.proc.cpuNS
		states += float64(s.stats.States)
	}
	res.metrics["ops_per_s"] = median(rates)
	res.metrics["latency_p50_ms"] = median(walls)
	res.metrics["runtime.cpu_ns_per_op"] = div(cpu, states)
	res.outcome(uint64(len(plain))+failed, failed)

	// The paper's per-event cost on the checked scenario: the canonical
	// schedule run to quiescence.
	w, v, err := explore.Replay(ecfg, scn, nil)
	if err != nil {
		return nil, err
	}
	res.check(v == nil, "check_ring5: canonical schedule violates an invariant")
	var cost protoCounters
	for s := 0; s < ecfg.Graph.NumSwitches(); s++ {
		cost.add(*w.Machine(topo.SwitchID(s)).Metrics())
	}
	res.metrics["computations_per_event"] = cost.computations / float64(len(scn.Injects))
	res.metrics["floods_per_event"] = cost.floods / float64(len(scn.Injects))

	if cfg.trace && len(res.checkErrs) == 0 {
		if err := checkTraced(res, scn, window, median(rates)); err != nil {
			return nil, err
		}
	}
	res.metrics["peak_mem_mb"] = peakMemMB()
	return res, nil
}

// checkCounts compares a search's size with the known state space.
func checkCounts(res *result, st explore.Stats) {
	res.check(!st.Truncated, "check_ring5: search truncated")
	res.check(st.States == checkStates, "check_ring5: %d states, want %d", st.States, checkStates)
	res.check(st.Transitions == checkTransitions, "check_ring5: %d transitions, want %d", st.Transitions, checkTransitions)
}

// checkTraced repeats the search with the timing algorithm installed and
// progress reported into spans.
func checkTraced(res *result, scn explore.Scenario, window time.Duration, plainRate float64) error {
	alg := &timedAlgorithm{inner: route.SPH{}, spans: res.spans}
	ecfg, _, err := checkInput(alg)
	if err != nil {
		return err
	}
	var all []search
	start := time.Now()
	for len(all) == 0 || time.Since(start) < window {
		group := res.spans.id()
		alg.group.Store(group)
		searchStart := time.Now()
		last := searchStart
		opt := explore.Options{Progress: func(explore.Stats) {
			now := time.Now()
			res.spans.record("explore.progress", 0, group, group, last, now)
			last = now
		}}
		s, err := exhaustive(ecfg, scn, opt)
		if err != nil {
			return err
		}
		res.spans.record("explore.Exhaustive", group, 0, group, searchStart, time.Now())
		checkCounts(res, s.stats)
		all = append(all, s)
	}
	var wall, states, trans, allocB, gcNS, cpuNS float64
	for _, s := range all {
		wall += float64(s.wall)
		states += float64(s.stats.States)
		trans += float64(s.stats.Transitions)
		allocB += s.proc.allocBytes
		gcNS += s.proc.gcCPUNS
		cpuNS += s.proc.cpuNS
	}
	n := float64(len(all))
	res.metrics["explore.states"] = states / n
	res.metrics["explore.transitions"] = trans / n
	res.metrics["explore.ns_per_transition"] = div(wall, trans)
	res.metrics["explore.alloc_bytes_per_transition"] = div(allocB, trans)
	res.metrics["explore.gc_cpu_frac"] = div(gcNS, cpuNS)
	res.metrics["explore.route_frac"] = div(float64(alg.ns.Load()), wall)
	res.metrics["route.compute_ns"] = div(float64(alg.ns.Load()), float64(alg.calls.Load()))
	res.metrics["runtime.gc_cpu_frac"] = div(gcNS, cpuNS)
	res.metrics["runtime.cpu_util"] = div(cpuNS, wall*float64(runtime.NumCPU()))
	var allocObjs float64
	for _, s := range all {
		allocObjs += s.proc.allocObjs
	}
	res.metrics["runtime.allocs_per_op"] = div(allocObjs, states)
	res.metrics["obs.trace_overhead_frac"] = div(plainRate-states/(wall/1e9), plainRate)
	return nil
}
