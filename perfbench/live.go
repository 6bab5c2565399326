package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
)

// gridMembers is the conn-1 member set of the 4×4 grid workloads: the four
// corners plus one interior switch, as BenchmarkClusterThroughput uses.
var gridMembers = []topo.SwitchID{0, 3, 5, 12, 15}

// gridSenders are the two members that originate data on the grid
// workloads: opposite corners, so every packet crosses the grid.
var gridSenders = []topo.SwitchID{0, 15}

// eventTimeout bounds the wait for one membership event to converge.
const eventTimeout = 5 * time.Second

// pollEvery is the pause between convergence polls. Polling competes with
// the cluster for the processors, so it must not spin.
const pollEvery = 20 * time.Microsecond

// reflects reports whether a node's snapshot of conn shows exactly want as
// the member set, committed (R = C ≥ E) and, with two or more members, a
// topology installed.
func reflects(n *rt.Node, conn lsa.ConnID, want map[topo.SwitchID]bool) bool {
	snap, ok := n.Connection(conn)
	if !ok {
		return len(want) == 0
	}
	if len(snap.Members) != len(want) {
		return false
	}
	for sw := range snap.Members {
		if !want[sw] {
			return false
		}
	}
	if !snap.R.Equal(snap.C) || !snap.R.Geq(snap.E) {
		return false
	}
	return len(want) < 2 || snap.Topology != nil
}

// awaitEvent polls every node until its snapshot reflects want, visiting
// each node until it does and never revisiting it, and returns the time
// from since until the last node reflected the event.
func awaitEvent(nodes []*rt.Node, conn lsa.ConnID, want map[topo.SwitchID]bool, since time.Time) (time.Duration, error) {
	deadline := since.Add(eventTimeout)
	for _, n := range nodes {
		for !reflects(n, conn, want) {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("conn %d: switch %d did not reflect the event within %v", conn, n.ID(), eventTimeout)
			}
			time.Sleep(pollEvery)
		}
	}
	return time.Since(since), nil
}

// memberSet tracks the expected member set of each connection.
type memberSet map[lsa.ConnID]map[topo.SwitchID]bool

func (m memberSet) apply(conn lsa.ConnID, sw topo.SwitchID, join bool) {
	if m[conn] == nil {
		m[conn] = map[topo.SwitchID]bool{}
	}
	if join {
		m[conn][sw] = true
	} else {
		delete(m[conn], sw)
	}
}

// inject hands the cluster one membership event and returns the time the
// call took.
func inject(c *rt.Cluster, sw topo.SwitchID, conn lsa.ConnID, join bool) (time.Duration, error) {
	start := time.Now()
	var err error
	if join {
		err = c.Join(sw, conn, mctree.SenderReceiver)
	} else {
		err = c.Leave(sw, conn)
	}
	return time.Since(start), err
}

// joinAll joins each member of conn in turn, waiting for every node to
// reflect each join and for the cluster-wide agreement check to pass.
func joinAll(c *rt.Cluster, conn lsa.ConnID, members []topo.SwitchID, want memberSet) error {
	nodes := c.Nodes()
	for _, sw := range members {
		start := time.Now()
		if _, err := inject(c, sw, conn, true); err != nil {
			return err
		}
		want.apply(conn, sw, true)
		if _, err := awaitEvent(nodes, conn, want[conn], start); err != nil {
			return err
		}
		if err := c.CheckAgreement(); err != nil {
			return err
		}
	}
	return nil
}

// protoCounters sums the protocol counters over every node.
type protoCounters struct {
	computations, floods, installs, computeNS, resyncReqs, fibCompiles float64
}

func sumCounters(c *rt.Cluster) protoCounters {
	var p protoCounters
	for _, n := range c.Nodes() {
		if n == nil {
			continue
		}
		m := n.Metrics()
		p.add(m)
		p.fibCompiles += float64(n.FIBCompiles())
	}
	return p
}

func (p *protoCounters) add(m core.Metrics) {
	p.computations += float64(m.Computations)
	p.floods += float64(m.MCLSAs)
	p.installs += float64(m.Installs)
	p.computeNS += float64(m.ComputeNanos)
	p.resyncReqs += float64(m.ResyncRequests)
}

func (p protoCounters) minus(q protoCounters) protoCounters {
	return protoCounters{
		computations: p.computations - q.computations,
		floods:       p.floods - q.floods,
		installs:     p.installs - q.installs,
		computeNS:    p.computeNS - q.computeNS,
		resyncReqs:   p.resyncReqs - q.resyncReqs,
		fibCompiles:  p.fibCompiles - q.fibCompiles,
	}
}

// gridCluster is a booted, converged 4×4 grid with the conn-1 members
// joined.
type gridCluster struct {
	c     *rt.Cluster
	fab   *rt.ChanFabric // nil over UDP
	graph *topo.Graph
	setup time.Duration
	// joinCost is the protocol cost of the setup joins.
	joinCost protoCounters
	joins    int
}

// bootGrid boots a 4×4 grid over a fresh fabric (in-process queues, or
// loopback UDP when udp is set) and joins gridMembers to conn 1 one at a
// time in a seed-chosen order. setup covers fabric creation, node boot,
// and every join's convergence.
func bootGrid(udp bool, rng *rand.Rand, handler rt.ClusterDataHandler) (*gridCluster, error) {
	g, err := topo.Grid(4, 4, 10*time.Microsecond)
	if err != nil {
		return nil, err
	}
	order := append([]topo.SwitchID(nil), gridMembers...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	start := time.Now()
	var fabric rt.Fabric
	var chanFab *rt.ChanFabric
	if udp {
		f, err := rt.NewUDPFabric(g.NumSwitches())
		if err != nil {
			return nil, err
		}
		fabric = f
	} else {
		chanFab = rt.NewChanFabric(g.NumSwitches())
		fabric = chanFab
	}
	c, err := rt.NewCluster(rt.ClusterConfig{Graph: g, ResyncTimeout: 50 * time.Millisecond, DataHandler: handler}, fabric)
	if err != nil {
		return nil, err
	}
	if err := joinAll(c, 1, order, memberSet{}); err != nil {
		c.Close()
		return nil, fmt.Errorf("setup joins: %w", err)
	}
	gc := &gridCluster{c: c, fab: chanFab, graph: g, setup: time.Since(start), joins: len(order)}
	gc.joinCost = sumCounters(c)
	return gc, nil
}

// booted is a cluster a workload boots, with the time its set-up took.
type booted interface {
	cluster() *rt.Cluster
	setupTime() time.Duration
}

func (g *gridCluster) cluster() *rt.Cluster     { return g.c }
func (g *gridCluster) setupTime() time.Duration { return g.setup }

// bootRepeated boots n times (once in a traced run), closing all but the
// last boot, and returns the last with the median set-up time in seconds.
func bootRepeated[T booted](cfg runConfig, n int, boot func() (T, error)) (T, float64, error) {
	if cfg.trace {
		n = 1
	}
	var last T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			last.cluster().Close()
			runtime.GC() // a discarded cluster must not inflate the peak
		}
		var err error
		if last, err = boot(); err != nil {
			return last, 0, err
		}
		times = append(times, last.setupTime().Seconds())
	}
	return last, median(times), nil
}

// quiesce closes a cluster whose measurement is done and collects its
// garbage, so a stage pass that follows times a quiet process. The nodes'
// forwarding tables stay readable.
func quiesce(c *rt.Cluster) {
	c.Close()
	runtime.GC()
}

// receiversOf lists the members that should deliver a packet from src.
func receiversOf(src topo.SwitchID) []topo.SwitchID {
	var out []topo.SwitchID
	for _, m := range gridMembers {
		if m != src {
			out = append(out, m)
		}
	}
	return out
}

// seededPayload returns size bytes drawn from rng.
func seededPayload(rng *rand.Rand, size int) []byte {
	p := make([]byte, size)
	rng.Read(p)
	return p
}
