// Micro-benchmarks for the protocol's hot paths: one machine step, frame
// encode/decode, flood fan-out, and topology computation. Where
// bench_test.go regenerates the paper's figures end to end, these isolate
// the unit costs that compose them. Run them with
// `go test -run '^$' -bench . -benchmem .`; perfbench/run.sh is the
// repository's end-to-end benchmark.
package dgmc_test

import (
	"fmt"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/sim"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// nullHost satisfies core.Host with no-ops so BenchmarkMachineStep measures
// the machine alone, not a runtime.
type nullHost struct{ neighbors []topo.SwitchID }

func (nullHost) FloodMC(*lsa.MC)                                                {}
func (nullHost) FloodNonMC(*lsa.NonMC)                                          {}
func (nullHost) SendUnicast(topo.SwitchID, any)                                 {}
func (nullHost) HoldCompute(any)                                                {}
func (nullHost) PendingMC(lsa.ConnID) bool                                      { return false }
func (h nullHost) Neighbors() []topo.SwitchID                                   { return h.neighbors }
func (nullHost) FabricLinkChanged(lsa.LinkChange)                               {}
func (nullHost) ArmResync(lsa.ConnID)                                           {}
func (nullHost) SelfNudge(lsa.ConnID)                                           {}
func (nullHost) NoteInstall()                                                   {}
func (nullHost) ForwardingChanged(lsa.ConnID)                                   {}
func (nullHost) Trace(core.TraceKind, core.ChainID, lsa.ConnID, string, ...any) {}
func (nullHost) TraceEnabled() bool                                             { return false }

// BenchmarkMachineStep measures one full EventHandler pass — stamp
// bookkeeping, proposal computation, flood emission — on a 16-switch ring.
func BenchmarkMachineStep(b *testing.B) {
	g, err := topo.Ring(16, 5*time.Microsecond)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMachine(core.MachineConfig{
		ID: 0, Graph: g, Algorithm: route.SPH{},
	}, nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		b.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.HandleLocalEvent(nil, join)
		} else {
			m.HandleLocalEvent(nil, leave)
		}
	}
}

// benchFrame builds a representative wire frame: an MC LSA carrying a
// 10-member proposal tree and a 64-switch vector stamp.
func benchFrame(b *testing.B) *lsa.Frame {
	b.Helper()
	const n = 64
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	members := mctree.Members{}
	for s := 0; len(members) < 10; s += 7 {
		members[topo.SwitchID(s%n)] = mctree.SenderReceiver
	}
	tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		b.Fatal(err)
	}
	st := stamp.New(n)
	for i := 0; i < n; i += 2 {
		st.Inc(i)
	}
	mc := &lsa.MC{Src: 3, Event: lsa.Join, Conn: 1, Role: mctree.SenderReceiver,
		Proposal: tree, Stamp: st}
	return &lsa.Frame{Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 3, From: 3, Seq: 42, Payload: mc.Marshal()}
}

// BenchmarkFrameEncode measures the transmit path: frame header + CRC
// around an already-marshalled LSA.
func BenchmarkFrameEncode(b *testing.B) {
	f := benchFrame(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = lsa.EncodeFrame(f)
	}
	b.ReportMetric(float64(len(lsa.EncodeFrame(f))), "frame-bytes")
}

// BenchmarkFrameDecode measures the receive path: frame validation (CRC,
// version, length) plus LSA unmarshalling.
func BenchmarkFrameDecode(b *testing.B) {
	buf := lsa.EncodeFrame(benchFrame(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := lsa.DecodeFrame(buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := lsa.Unmarshal(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloodFanout measures hop-by-hop flood fan-out on a 60-switch
// random graph: every switch forwards each new LSA to its other neighbors,
// so one flood costs O(links) simulator events.
func BenchmarkFloodFanout(b *testing.B) {
	g, err := topo.Waxman(topo.DefaultGenConfig(60, 5))
	if err != nil {
		b.Fatal(err)
	}
	var copies uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		net, err := flood.New(k, g, 2*time.Microsecond, flood.HopByHop)
		if err != nil {
			b.Fatal(err)
		}
		net.Flood(topo.SwitchID(i%60), i)
		if _, err := k.Run(); err != nil {
			b.Fatal(err)
		}
		copies = net.Copies()
		k.Shutdown()
	}
	b.ReportMetric(float64(copies), "copies/flood")
}

// benchFIBSetup builds a 64-switch graph with installed trees on several
// connections, compiled from one relay switch's point of view.
func benchFIBSetup(b testing.TB, conns int) (*topo.Graph, []fibConnState, topo.SwitchID) {
	b.Helper()
	const n = 64
	g, err := topo.Waxman(topo.DefaultGenConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	states := make([]fibConnState, 0, conns)
	for c := 1; c <= conns; c++ {
		members := mctree.Members{}
		for s := c; len(members) < 10; s += 7 {
			members[topo.SwitchID(s%n)] = mctree.SenderReceiver
		}
		tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
		if err != nil {
			b.Fatal(err)
		}
		states = append(states, fibConnState{conn: lsa.ConnID(c), members: members, tree: tree})
	}
	// Compile at a switch on the first tree so lookups hit a fan-out entry.
	var self topo.SwitchID = topo.NoSwitch
	for s := 0; s < n; s++ {
		if states[0].tree.On(topo.SwitchID(s)) && len(states[0].tree.Neighbors(topo.SwitchID(s))) >= 2 {
			self = topo.SwitchID(s)
			break
		}
	}
	if self == topo.NoSwitch {
		b.Fatal("no relay switch on the benchmark tree")
	}
	return g, states, self
}

type fibConnState struct {
	conn    lsa.ConnID
	members mctree.Members
	tree    *mctree.Tree
}

func compileFIB(g *topo.Graph, states []fibConnState, self topo.SwitchID) *fib.Table {
	bl := fib.NewBuilder(self, g)
	for _, st := range states {
		bl.Add(st.conn, mctree.Symmetric, st.members, st.tree)
	}
	return bl.Build()
}

// BenchmarkFIBForward measures the steady-state per-packet cost of the data
// plane as a relay switch sees it: frame decode, table lookup, and the
// in-place From/hops/CRC rewrite before fan-out. The same composition is
// pinned at zero allocations by TestAllocGateFIBForward.
func BenchmarkFIBForward(b *testing.B) {
	g, states, self := benchFIBSetup(b, 8)
	tbl := compileFIB(g, states, self)
	d := lsa.DataFrame{Conn: states[0].conn, Src: 0, Seq: 1, Hops: 64, Payload: make([]byte, 64)}
	buf := lsa.AppendDataFrame(nil, &d, 0)
	var f lsa.Frame
	var dec lsa.DataFrame
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			b.Fatal(err)
		}
		if err := lsa.DecodeDataInto(&dec, &f); err != nil {
			b.Fatal(err)
		}
		e := tbl.Lookup(dec.Conn)
		if e == nil || !e.Entered() {
			b.Fatal("benchmark entry missing")
		}
		if err := lsa.PatchDataForward(buf, self, dec.Hops); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIBCompile measures one full table compilation — the work every
// install/withdraw triggers on each switch — at 8 connections with
// 10-member trees on a 64-switch graph.
func BenchmarkFIBCompile(b *testing.B) {
	g, states, self := benchFIBSetup(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if compileFIB(g, states, self).Size() != len(states) {
			b.Fatal("compile lost entries")
		}
	}
}

// BenchmarkTopoCompute measures one from-scratch topology computation (the
// paper's Tc) at three network sizes; n250 exists to expose the asymptotic
// gap between the old O(n²) linear-min Dijkstra and the heap kernel.
func BenchmarkTopoCompute(b *testing.B) {
	for _, n := range []int{50, 100, 250} {
		g, err := topo.Waxman(topo.DefaultGenConfig(n, 3))
		if err != nil {
			b.Fatal(err)
		}
		members := mctree.Members{}
		for s := 0; len(members) < 10; s += 7 {
			members[topo.SwitchID(s%n)] = mctree.SenderReceiver
		}
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (route.SPH{}).Compute(g, mctree.Symmetric, members); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
