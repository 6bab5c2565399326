package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

// churn64 parameters. The graph is one fixed 64-switch Waxman topology, so
// the seed varies the event sequence rather than the network whose cost is
// measured.
const (
	churnSwitches    = 64
	churnGraphSeed   = 1
	churnConns       = 4
	churnInitMembers = 3
	churnMinMembers  = 2
	churnMaxMembers  = 8
	churnSetups      = 7
	// churnMemEvents is the event count at which peak memory is read. Every
	// node keeps each event LSA, so memory grows with the events handled;
	// reading it after a fixed count keeps a faster run from reading as a
	// larger one.
	churnMemEvents = 2000
	// maxProtocolSpans bounds the obs.SpanCollector spans the traced run
	// writes out.
	maxProtocolSpans = 20
)

// churnCluster is a booted 64-switch cluster with its expected membership.
type churnCluster struct {
	c     *rt.Cluster
	want  memberSet
	setup time.Duration
}

func (c *churnCluster) cluster() *rt.Cluster     { return c.c }
func (c *churnCluster) setupTime() time.Duration { return c.setup }

// bootChurn boots the 64-switch cluster and joins churnInitMembers
// seed-chosen members to each connection, one join at a time.
func bootChurn(g *topo.Graph, rng *rand.Rand, alg route.Algorithm, tracer *obs.SpanCollector) (*churnCluster, error) {
	start := time.Now()
	ccfg := rt.ClusterConfig{Graph: g, Algorithm: alg, ResyncTimeout: 50 * time.Millisecond}
	if tracer != nil { // a nil *SpanCollector would be a non-nil core.Tracer
		ccfg.Tracer = tracer
	}
	c, err := rt.NewCluster(ccfg, rt.NewChanFabric(g.NumSwitches()))
	if err != nil {
		return nil, err
	}
	want := memberSet{}
	for conn := lsa.ConnID(1); conn <= churnConns; conn++ {
		perm := rng.Perm(g.NumSwitches())[:churnInitMembers]
		var members []topo.SwitchID
		for _, s := range perm {
			members = append(members, topo.SwitchID(s))
		}
		if err := joinAll(c, conn, members, want); err != nil {
			c.Close()
			return nil, fmt.Errorf("setup joins: %w", err)
		}
	}
	return &churnCluster{c: c, want: want, setup: time.Since(start)}, nil
}

// churnStats is one closed-loop event run.
type churnStats struct {
	events, failed int
	converge       []float64 // ms per converged event
	injectNS       float64
	// eventCPU is the process CPU spent from each inject until every node
	// reflected it (the agreement check is excluded).
	eventCPU float64
	wall     time.Duration
	// peakMB is the peak RSS after churnMemEvents events, or at the end of
	// a shorter run.
	peakMB float64
	proc   procDelta
	cost   protoCounters
}

// churnLoop injects one seed-chosen join or leave at a time until the
// window has elapsed, waiting for every node to reflect each event and for
// the agreement check to pass before the next.
func churnLoop(cc *churnCluster, rng *rand.Rand, window time.Duration, spans *recorder, alg *timedAlgorithm) (churnStats, error) {
	var st churnStats
	nodes := cc.c.Nodes()
	n := len(nodes)
	c0 := sumCounters(cc.c)
	p0 := sampleProc()
	start := time.Now()
	for time.Since(start) < window {
		conn := lsa.ConnID(rng.Intn(churnConns) + 1)
		members := cc.want[conn]
		join := rng.Intn(2) == 0
		if len(members) <= churnMinMembers {
			join = true
		} else if len(members) >= churnMaxMembers {
			join = false
		}
		var sw topo.SwitchID
		for {
			sw = topo.SwitchID(rng.Intn(n))
			if members[sw] != join {
				break
			}
		}
		group := spans.id()
		if alg != nil {
			alg.group.Store(group)
		}
		cpu0 := cpuNow()
		evStart := time.Now()
		took, err := inject(cc.c, sw, conn, join)
		if err != nil {
			return st, err
		}
		injectEnd := evStart.Add(took)
		spans.record("rt.Cluster.inject", 0, group, group, evStart, injectEnd)
		st.injectNS += float64(took)
		cc.want.apply(conn, sw, join)
		st.events++
		conv, err := awaitEvent(nodes, conn, cc.want[conn], evStart)
		cpu := cpuNow() - cpu0
		if err != nil {
			st.failed++
			if werr := cc.c.WaitConverged(30 * time.Second); werr != nil {
				return st, fmt.Errorf("%v; then %w", err, werr)
			}
			continue
		}
		spans.record("rt.awaitEvent", 0, group, group, injectEnd, evStart.Add(conv))
		st.converge = append(st.converge, ms(conv))
		if err := cc.c.CheckAgreement(); err != nil {
			return st, fmt.Errorf("agreement after event %d: %w", st.events, err)
		}
		if st.events == churnMemEvents {
			st.peakMB = peakMemMB()
		}
		st.eventCPU += cpu
		spans.record("event", group, 0, group, evStart, time.Now())
	}
	st.wall = time.Since(start)
	st.proc = p0.to(sampleProc())
	if st.peakMB == 0 {
		st.peakMB = peakMemMB()
	}
	st.cost = sumCounters(cc.c).minus(c0)
	return st, nil
}

// runChurn is the churn64 workload: the paper's per-event cost on the live
// runtime, data plane idle.
func runChurn(cfg runConfig) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	g, err := topo.Waxman(topo.DefaultGenConfig(churnSwitches, churnGraphSeed))
	if err != nil {
		return nil, err
	}
	cc, setup, err := bootRepeated(cfg, churnSetups, func() (*churnCluster, error) {
		return bootChurn(g, rng, nil, nil)
	})
	if err != nil {
		return nil, err
	}

	var spans *recorder
	if cfg.trace {
		spans = newRecorder()
	}
	res := newResult("chan", spans)
	res.metrics["setup_s"] = setup

	window := cfg.window
	if cfg.trace {
		window /= 2
	}
	plain, err := churnLoop(cc, rng, window, nil, nil)
	cc.c.Close()
	if err != nil {
		return nil, err
	}
	res.outcome(uint64(plain.events), uint64(plain.failed))
	ev := float64(plain.events)
	res.metrics["ops_per_s"] = ev / plain.wall.Seconds()
	res.metrics["runtime.cpu_ns_per_op"] = div(plain.eventCPU, ev)
	res.metrics["latency_p50_ms"] = median(plain.converge)
	res.metrics["computations_per_event"] = div(plain.cost.computations, ev)
	res.metrics["floods_per_event"] = div(plain.cost.floods, ev)
	res.check(plain.cost.computations == ev, "churn64: %v computations for %v events", plain.cost.computations, ev)
	res.check(plain.cost.floods == ev, "churn64: %v floods for %v events", plain.cost.floods, ev)

	if cfg.trace {
		if err := churnTraced(cfg, res, g, rng, window, plain); err != nil {
			return nil, err
		}
	}
	res.metrics["peak_mem_mb"] = plain.peakMB
	return res, nil
}

// churnTraced runs the traced half: a fresh cluster with the timing
// algorithm and an obs.SpanCollector attached, whose per-event counts must
// match the node counters.
func churnTraced(cfg runConfig, res *result, g *topo.Graph, rng *rand.Rand, window time.Duration, plain churnStats) error {
	res.metrics["workload.latency_p99_ms"] = quantile(plain.converge, 0.99)
	alg := &timedAlgorithm{inner: route.SPH{}, spans: res.spans}
	col := obs.NewSpanCollector(1 << 20)
	cc, err := bootChurn(g, rng, alg, col)
	if err != nil {
		return err
	}
	defer cc.c.Close()
	before := spanSums(col)
	calls0, ns0 := alg.calls.Load(), alg.ns.Load()
	st, err := churnLoop(cc, rng, window, res.spans, alg)
	if err != nil {
		return err
	}
	if err := cc.c.Settle(25*time.Millisecond, 10*time.Second); err != nil {
		return err
	}
	after := spanSums(col)
	ev := float64(st.events)
	calls := float64(alg.calls.Load() - calls0)
	res.metrics["route.compute_ns"] = div(float64(alg.ns.Load()-ns0), calls)
	res.metrics["route.calls_per_event"] = div(calls, ev)
	res.metrics["core.compute_ns_per_event"] = div(st.cost.computeNS, ev)
	res.metrics["core.resync_requests"] = st.cost.resyncReqs
	res.metrics["rt.fib_compiles_per_event"] = div(st.cost.fibCompiles, ev)
	res.metrics["rt.installs_per_event"] = div(st.cost.installs, ev)
	res.metrics["rt.inject_ns"] = div(st.injectNS, ev)
	res.metrics["runtime.allocs_per_op"] = div(st.proc.allocObjs, ev)
	res.metrics["runtime.gc_cpu_frac"] = st.proc.gcFrac()
	res.metrics["runtime.cpu_util"] = st.proc.cpuUtil(runtime.NumCPU())
	tracedRate := ev / st.wall.Seconds()
	res.metrics["obs.trace_overhead_frac"] = div(res.metrics["ops_per_s"]-tracedRate, res.metrics["ops_per_s"])

	spanComp := after.computations - before.computations
	spanFloods := after.floods - before.floods
	res.metrics["obs.span_computations_per_event"] = div(spanComp, ev)
	res.metrics["obs.span_floods_per_event"] = div(spanFloods, ev)
	res.metrics["obs.span_converge_p50_ms"] = spanConvergeP50(col, before.latestStart)
	res.check(spanComp == st.cost.computations, "churn64: span collector saw %v computations, node counters %v", spanComp, st.cost.computations)
	res.check(spanFloods == st.cost.floods, "churn64: span collector saw %v floods, node counters %v", spanFloods, st.cost.floods)
	res.check(st.cost.resyncReqs == 0, "churn64: %v resync requests on a lossless fabric", st.cost.resyncReqs)
	res.check(st.failed == 0, "churn64: %d traced events did not converge", st.failed)

	if err := writeProtocolSpans(cfg, col); err != nil {
		return err
	}
	self := cc.c.Node(0)
	snaps := connSnapshots(self)
	quiesce(cc.c)
	return controlStages(res, g, self.ID(), snaps)
}

// writeProtocolSpans writes the collector's stats and first spans; the full
// dump runs to tens of MB per run, and the first spans are enough to read
// one event's protocol steps.
func writeProtocolSpans(cfg runConfig, col *obs.SpanCollector) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	spansOut := col.Spans()
	if len(spansOut) > maxProtocolSpans {
		spansOut = spansOut[:maxProtocolSpans]
	}
	data, err := json.MarshalIndent(struct {
		Stats obs.SpanStats `json:"stats"`
		Spans []obs.Span    `json:"spans"`
	}{col.Stats(), spansOut}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-protocol.json", cfg.workload, cfg.seed)), data, 0o644)
}

// spanTally sums the collector's per-chain counts. Chains are keyed by
// (origin, per-connection event index), so two events can share one span;
// sums over all spans stay exact.
type spanTally struct {
	computations, floods float64
	latestStart          int64
}

func spanSums(col *obs.SpanCollector) spanTally {
	var t spanTally
	for _, sp := range col.Spans() {
		t.computations += float64(sp.Computations)
		t.floods += float64(sp.Floods)
		if sp.StartNS > t.latestStart {
			t.latestStart = sp.StartNS
		}
	}
	return t
}

// spanConvergeP50 is the collector's median event-to-last-install latency
// over the spans that started after cut and hold exactly one event; a
// span holding two events' steps measures neither.
func spanConvergeP50(col *obs.SpanCollector, cut int64) float64 {
	var xs []float64
	for _, sp := range col.Spans() {
		events := 0
		for _, st := range sp.Steps {
			if st.Kind == core.TraceEvent.String() {
				events++
			}
		}
		if sp.StartNS > cut && sp.ConvergeNS > 0 && events == 1 {
			xs = append(xs, float64(sp.ConvergeNS)/1e6)
		}
	}
	return median(xs)
}
