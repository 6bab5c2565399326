package main

import (
	"fmt"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/rt"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// Stage isolation: each stage is one public call (or a short fixed
// sequence of them) timed in a tight loop on frames of the workload's
// sizes. Nothing is hooked inside the program.

const (
	stageRounds = 9
	stageBudget = 20 * time.Millisecond
	stageChunk  = 64
)

// timeStage calls op in chunks until the budget has elapsed, stageRounds
// times, and returns the median nanoseconds per call.
func timeStage(op func()) float64 {
	var perOp []float64
	for r := 0; r < stageRounds; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < stageBudget {
			for i := 0; i < stageChunk; i++ {
				op()
			}
			n += stageChunk
		}
		perOp = append(perOp, float64(time.Since(start))/float64(n))
	}
	return median(perOp)
}

// stageErr keeps the first error a timed op hit; ops cannot return one
// through timeStage.
type stageErr struct{ err error }

func (s *stageErr) note(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

func dataFrame(size int) []byte {
	d := lsa.DataFrame{Conn: 1, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: make([]byte, size)}
	return lsa.AppendDataFrame(nil, &d, 0)
}

// lsaStages times the data-frame codec at both workload payload sizes;
// 1,024 bytes is where the CRC's share of a patch shows.
func lsaStages(res *result) error {
	var se stageErr
	for _, size := range []int{64, 1024} {
		d := lsa.DataFrame{Conn: 1, Src: 0, Seq: 1, Hops: rt.DefaultDataHops, Payload: make([]byte, size)}
		buf := make([]byte, 0, size+64)
		res.metrics[fmt.Sprintf("lsa.encode_ns_%d", size)] = timeStage(func() {
			buf = lsa.AppendDataFrame(buf[:0], &d, 3)
		})
		frame := dataFrame(size)
		var f lsa.Frame
		var dd lsa.DataFrame
		res.metrics[fmt.Sprintf("lsa.decode_ns_%d", size)] = timeStage(func() {
			se.note(lsa.DecodeFrameInto(&f, frame))
			se.note(lsa.DecodeDataInto(&dd, &f))
		})
		res.metrics[fmt.Sprintf("lsa.patch_ns_%d", size)] = timeStage(func() {
			se.note(lsa.PatchDataForward(frame, 3, rt.DefaultDataHops-1))
		})
	}
	return se.err
}

// The fabric's batched receive and ownership-moving send, reached through
// the transport the fabric hands out.
type batchPort interface {
	RecvBatch(recycle [][]byte) ([][]byte, error)
	Release(n int)
}

type ownedPort interface {
	SendOwned(to topo.SwitchID, buf []byte) error
}

// chanCycle times SendOwned→RecvBatch→Release per frame on a standalone
// two-port fabric. Ownership moves keep the stage free of the pooled copy
// that the copying Send adds, whose buffers only a node can recycle.
func chanCycle() (float64, error) {
	fab := rt.NewChanFabric(2)
	defer fab.Close()
	tx, ok1 := fab.Transport(0).(ownedPort)
	rx, ok2 := fab.Transport(1).(batchPort)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("chan fabric transport lost its batch methods")
	}
	const burst = 32
	frame := dataFrame(blastPayload)
	var se stageErr
	var recycle [][]byte
	perBurst := timeStage(func() {
		for i := 0; i < burst; i++ {
			se.note(tx.SendOwned(1, frame))
		}
		got, err := rx.RecvBatch(recycle)
		se.note(err)
		rx.Release(len(got))
		recycle = got
	})
	return perBurst / burst, se.err
}

// udpCycle times Send→Recv per 1,024-byte frame between two loopback
// sockets. Recv rents a 64 KiB buffer per datagram that a node would
// recycle and the stage cannot, so the figure includes that allocation. A
// lost datagram would block Recv, so a watchdog closes the fabric if no
// burst completes for five seconds.
func udpCycle() (float64, error) {
	fab, err := rt.NewUDPFabric(2)
	if err != nil {
		return 0, err
	}
	defer fab.Close()
	watchdog := time.AfterFunc(5*time.Second, func() { fab.Close() })
	defer watchdog.Stop()
	tx, rx := fab.Transport(0), fab.Transport(1)
	const burst = 16
	frame := dataFrame(pacedPayload)
	var se stageErr
	perBurst := timeStage(func() {
		if se.err != nil {
			return
		}
		watchdog.Reset(5 * time.Second)
		for i := 0; i < burst; i++ {
			se.note(tx.Send(1, frame))
		}
		for i := 0; i < burst; i++ {
			if _, err := rx.Recv(); err != nil {
				se.note(err)
				return
			}
		}
	})
	return perBurst / burst, se.err
}

// fibLookup times one Lookup on the table a live node last installed.
func fibLookup(n *rt.Node, conn lsa.ConnID) (float64, error) {
	tbl := n.FIB()
	if e := tbl.Lookup(conn); e == nil {
		return 0, fmt.Errorf("switch %d has no FIB entry for conn %d", n.ID(), conn)
	}
	var sink *fib.Entry
	ns := timeStage(func() { sink = tbl.Lookup(conn) })
	_ = sink
	return ns, nil
}

// dataStages is the stage pass of the two data-plane workloads.
func dataStages(res *result, gc *gridCluster) error {
	if err := lsaStages(res); err != nil {
		return err
	}
	ns, err := fibLookup(gc.c.Node(gridMembers[2]), 1)
	if err != nil {
		return err
	}
	res.metrics["fib.lookup_ns"] = ns
	return nil
}

// blastStages adds the in-process fabric cycle and rt.stage_coverage: the
// per-packet stage counts, taken from a walk of the live FIBs, times the
// stage costs, over the traced half's CPU per packet.
func blastStages(res *result, gc *gridCluster, cpuPerPkt float64) error {
	if err := dataStages(res, gc); err != nil {
		return err
	}
	cyc, err := chanCycle()
	if err != nil {
		return err
	}
	res.metrics["chanfabric.cycle_ns"] = cyc
	var frames, relays float64
	for _, src := range gridSenders {
		f, r := walkFIB(gc.c, src, 1)
		frames += f
		relays += r
	}
	frames /= float64(len(gridSenders))
	relays /= float64(len(gridSenders))
	patch := res.metrics["lsa.patch_ns_64"]
	// Origination restamps the batch frame (a patch) per packet; every link
	// copy costs a fabric cycle, a decode and a lookup; every relay patches.
	perPkt := patch + frames*(cyc+res.metrics["lsa.decode_ns_64"]+res.metrics["fib.lookup_ns"]) + relays*patch
	res.metrics["rt.stage_coverage"] = div(perPkt, cpuPerPkt)
	return nil
}

// walkFIB follows one packet from src over the live forwarding tables and
// returns the link copies it takes and the relays that patch it.
func walkFIB(c *rt.Cluster, src topo.SwitchID, conn lsa.ConnID) (frames, relays float64) {
	type hop struct{ at, from topo.SwitchID }
	queue := []hop{{src, topo.NoSwitch}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		e := c.Node(h.at).FIB().Lookup(conn)
		if e == nil {
			continue
		}
		out := 0
		for _, nb := range e.Neighbors {
			if nb != h.from {
				queue = append(queue, hop{nb, h.at})
				out++
			}
		}
		frames += float64(out)
		if out > 0 && h.at != src {
			relays++
		}
	}
	return frames, relays
}

// nullHost satisfies core.Host with no-ops, so a standalone machine step
// measures the machine alone.
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

// connSnapshots copies a live node's state of every connection.
func connSnapshots(n *rt.Node) []core.Snapshot {
	var snaps []core.Snapshot
	for _, conn := range n.Connections() {
		if s, ok := n.Connection(conn); ok {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// controlStages is churn64's stage pass: a standalone machine step at 64
// switches, the decode of a flooded 64-switch-stamp MC LSA, and a FIB
// compile of switch self's connections as a live node held them.
func controlStages(res *result, g *topo.Graph, self topo.SwitchID, snaps []core.Snapshot) error {
	m, err := core.NewMachine(core.MachineConfig{ID: 0, Graph: g, Algorithm: route.SPH{}},
		nullHost{neighbors: g.Neighbors(0)})
	if err != nil {
		return err
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	leave := core.LocalEvent{Conn: 1, Kind: lsa.Leave}
	step := 0
	res.metrics["core.step_ns"] = timeStage(func() {
		if step%2 == 0 {
			m.HandleLocalEvent(nil, join)
		} else {
			m.HandleLocalEvent(nil, leave)
		}
		step++
	})

	n64 := g.NumSwitches()
	members := mctree.Members{}
	for s := 0; len(members) < 10; s += 7 {
		members[topo.SwitchID(s%n64)] = mctree.SenderReceiver
	}
	tree, err := (route.SPH{}).Compute(g, mctree.Symmetric, members)
	if err != nil {
		return err
	}
	st := stamp.New(n64)
	for i := 0; i < n64; i += 2 {
		st.Inc(i)
	}
	mc := &lsa.MC{Src: 3, Event: lsa.Join, Conn: 1, Role: mctree.SenderReceiver, Proposal: tree, Stamp: st}
	frame := lsa.EncodeFrame(&lsa.Frame{Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: 3, From: 3, Seq: 42, Payload: mc.Marshal()})
	var f lsa.Frame
	var se stageErr
	res.metrics["lsa.flood_decode_ns"] = timeStage(func() {
		se.note(lsa.DecodeFrameInto(&f, frame))
		_, _, err := lsa.Unmarshal(f.Payload)
		se.note(err)
	})
	if se.err != nil {
		return se.err
	}

	res.metrics["fib.compile_ns"] = timeStage(func() {
		b := fib.NewBuilder(self, g)
		for _, s := range snaps {
			b.Add(s.Conn, s.Kind, s.Members, s.Topology)
		}
		b.Build()
	})
	return nil
}
