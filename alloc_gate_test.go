// Allocation-regression gates for the hot paths the PR-5 performance pass
// slimmed down: these run as ordinary tests (so CI blocks on them), with
// budgets set just above the measured steady-state so a reintroduced
// per-call allocation — a lost pooled buffer, an un-elided clone, a
// variadic Trace call un-guarded — fails loudly rather than rotting
// silently. Budgets are per operation and generous by ~25%; they gate
// regressions, they are not the measured values (measure those with
// `go test -run '^$' -bench . -benchmem .`; BENCH_pr5.json archives them).
package dgmc_test

import (
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/topo"
)

func gate(t *testing.T, path string, budget float64, f func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, f); got > budget {
		t.Errorf("%s: %.1f allocs/op exceeds budget %.0f", path, got, budget)
	}
}

// TestAllocGateMachineStep bounds one full EventHandler pass (join or
// leave): stamp bookkeeping, SPH proposal computation, flood emission.
func TestAllocGateMachineStep(t *testing.T) {
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		t.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	// Measured 17 allocs for the join+leave pair, ~8.5/step (was 14/step
	// before the pass: per-flood stamp clones, unguarded variadic traces).
	gate(t, "core.Machine.HandleLocalEvent (join+leave pair)", 20, func() {
		m.HandleLocalEvent(nil, join)
		m.HandleLocalEvent(nil, leave)
	})
}

// TestAllocGateFrameCodec bounds the wire codec. The pooled append path
// must be allocation-free into a reused buffer, and header decode must not
// allocate at all (the payload view aliases the input).
func TestAllocGateFrameCodec(t *testing.T) {
	nm := &lsa.NonMC{Src: 3, Seq: 9, Change: lsa.LinkChange{A: 1, B: 2, Down: true}}
	f := &lsa.Frame{Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 3, From: 3, Seq: 42, Payload: nm.Marshal()}
	buf := make([]byte, 0, 1024)
	gate(t, "lsa.AppendFrame (reused buffer)", 0, func() {
		buf = lsa.AppendFrame(buf[:0], f)
	})
	gate(t, "lsa.AppendFrameWith (reused buffer)", 0, func() {
		buf = lsa.AppendFrameWith(buf[:0], f, nm.AppendMarshal)
	})
	var dec lsa.Frame
	gate(t, "lsa.DecodeFrameInto", 0, func() {
		if err := lsa.DecodeFrameInto(&dec, buf); err != nil {
			t.Fatal(err)
		}
	})
	// The boxed convenience wrapper may allocate the one result it returns.
	gate(t, "lsa.EncodeFrame", 1, func() {
		_ = lsa.EncodeFrame(f)
	})
}

// TestAllocGateFIBForward pins the data plane's steady-state per-packet
// composition — frame decode, payload decode, FIB lookup, in-place forward
// rewrite — at exactly zero allocations. No slack: one allocation per
// packet is the difference between a forwarding plane and a garbage
// generator, and internal/rt's white-box gate holds the same line on the
// real Node.handleData.
func TestAllocGateFIBForward(t *testing.T) {
	g, states, self := benchFIBSetup(t, 8)
	tbl := compileFIB(g, states, self)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 1, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	gate(t, "data-plane forward (decode+lookup+patch)", 0, func() {
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			t.Fatal(err)
		}
		if e := tbl.Lookup(dec.Conn); e == nil || !e.Entered() {
			t.Fatal("gate entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocGateForwardInstrumented holds the PR-9 line from outside the
// package: the forward composition of TestAllocGateFIBForward plus full
// observability — a flight-recorder event per packet, the deterministic
// sampling decision, and a sampled-hop record — still makes exactly zero
// heap allocations. internal/rt's white-box twin
// (TestHandleDataInstrumentedZeroAlloc) pins the same budget on the real
// Node.handleData with the registry live; this gate proves the obs
// primitives themselves never regress into allocating.
func TestAllocGateForwardInstrumented(t *testing.T) {
	g, states, self := benchFIBSetup(t, 8)
	tbl := compileFIB(g, states, self)
	events := obs.NewFlightRecorder(1024)
	hops := obs.NewFlightRecorder(1024)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 0, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	seq := uint64(0)
	gate(t, "instrumented forward (decode+lookup+patch+record+sample)", 0, func() {
		seq++
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			t.Fatal(err)
		}
		if e := tbl.Lookup(dec.Conn); e == nil || !e.Entered() {
			t.Fatal("gate entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			t.Fatal(err)
		}
		events.Record(obs.RecForward, uint32(dec.Conn), uint32(dec.Src), seq, uint64(self))
		if obs.Sampled(seq, 4) {
			hops.Record(obs.RecForward, uint32(dec.Conn), uint32(dec.Src), seq, uint64(self))
		}
	})
	if events.Written() == 0 || hops.Written() == 0 {
		t.Fatal("recorder gates measured nothing")
	}
}

// TestAllocGateFloodFanout bounds a full hop-by-hop flood on a 60-switch
// random graph, amortized per delivered copy: simulator event scheduling is
// closure-free and mailbox delivery is inlined into the event record, so
// the cost per copy is the boxed message plus queue growth.
func TestAllocGateFloodFanout(t *testing.T) {
	g, err := topo.Waxman(topo.DefaultGenConfig(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	defer k.Shutdown()
	net, err := flood.New(k, g, 2*time.Microsecond, flood.HopByHop)
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	var copies uint64
	allocs := testing.AllocsPerRun(100, func() {
		seq++
		net.Flood(topo.SwitchID(seq%60), seq)
		if _, err := k.Run(); err != nil {
			t.Fatal(err)
		}
		copies = net.Copies()
	})
	// Measured ~11 allocs per delivered copy after the pass (closure-free
	// scheduling); the old per-hop closures and per-call arrival scratch put
	// it well above. copies is cumulative; per-run fan-out is copies/seq.
	perCopy := allocs / (float64(copies) / float64(seq))
	if perCopy > 14 {
		t.Errorf("flood fan-out: %.1f allocs per delivered copy exceeds budget 14 (%.0f allocs/flood)",
			perCopy, allocs)
	}
}
