package rt

import (
	"fmt"
	"sync"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// Fabric hands out per-switch transports. ChanFabric and UDPFabric
// implement it.
type Fabric interface {
	Transport(id topo.SwitchID) Transport
	Close() error
}

// ClusterConfig configures a live N-switch fabric in one process.
type ClusterConfig struct {
	// Graph is the fabric topology. Required, and must be connected.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH).
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type.
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold, ResyncTimeout, ResyncMaxRounds, ComputeDelay,
	// and Logf are applied to every node; see NodeConfig.
	ReoptimizeThreshold float64
	ResyncTimeout       time.Duration
	ResyncMaxRounds     int
	ComputeDelay        time.Duration
	Logf                func(format string, args ...any)
	// Tracer and Registry are shared by every node (one network-wide span
	// collector and one registry with per-switch labels); see NodeConfig.
	Tracer   core.Tracer
	Registry *obs.Registry
	// DataHandler, if set, receives every payload the data plane delivers
	// anywhere in the cluster, tagged with the delivering switch. Same
	// contract as NodeConfig.DataHandler: called on the receive goroutine,
	// must not block, payload aliases a pooled buffer.
	DataHandler ClusterDataHandler
	// DataHops is the hop budget on originated payloads (default
	// DefaultDataHops).
	DataHops int
	// FlightRecords and SampleEvery enable every node's flight recorder
	// and 1-in-N packet path sampling; see NodeConfig.
	FlightRecords int
	SampleEvery   int
}

// ClusterDataHandler is ClusterConfig.DataHandler: a node-level DataHandler
// plus the identity of the switch that delivered.
type ClusterDataHandler func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte)

// Cluster boots one Node per switch of a graph over a shared fabric: the
// live-runtime counterpart of core.Domain, used by the live harness tests
// and the sim-vs-live equivalence test. Beyond booting and converging, it
// is the fault harness: KillNode/RestartNode crash and recover individual
// switches, Partition/Heal split and reconcile the whole fabric.
type Cluster struct {
	cfg     ClusterConfig
	graph   *topo.Graph
	fabric  Fabric
	chanFab *ChanFabric // non-nil when fabric supports in-flight counting

	// healed / restarts count fault-recovery operations cluster-wide.
	// Plain counters (not funcs) so re-registration across restarts is a
	// no-op by registry idempotency.
	healed   *obs.Counter
	restarts *obs.Counter

	// mu guards nodes, last, epochs, and partition against concurrent fault
	// operations; steady-state reads (Settle, CheckAgreement) take it too.
	mu    sync.RWMutex
	nodes []*Node // nil entry = switch currently dead
	last  []*Node // most recent incarnation ever, alive or dead
	// epochs tracks each switch's restart epoch; bumped on every restart.
	epochs []uint64
	// partition remembers the active split so Heal knows which boundary
	// links to reconcile.
	partition [][]topo.SwitchID
}

// NewCluster starts one node per switch. It takes ownership of fabric and
// closes it (and any started nodes) on failure.
func NewCluster(cfg ClusterConfig, fabric Fabric) (*Cluster, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("rt: ClusterConfig.Graph is required")
	}
	if !cfg.Graph.Connected() {
		fabric.Close()
		return nil, fmt.Errorf("rt: fabric graph is not connected")
	}
	c := &Cluster{
		cfg:      cfg,
		graph:    cfg.Graph,
		fabric:   fabric,
		healed:   cfg.Registry.Counter("dgmc_partitions_healed_total"),
		restarts: cfg.Registry.Counter("dgmc_node_restarts_total"),
		epochs:   make([]uint64, cfg.Graph.NumSwitches()),
	}
	c.chanFab, _ = fabric.(*ChanFabric)
	for i := 0; i < cfg.Graph.NumSwitches(); i++ {
		n, err := c.newNode(topo.SwitchID(i), 0, nil)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.last = append(c.last, n)
	}
	return c, nil
}

// newNode boots one switch at the given restart epoch, optionally from a
// snapshot.
func (c *Cluster) newNode(id topo.SwitchID, epoch uint64, snap *NodeSnapshot) (*Node, error) {
	var dh DataHandler
	if c.cfg.DataHandler != nil {
		h := c.cfg.DataHandler
		dh = func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			h(id, conn, src, seq, payload)
		}
	}
	return NewNode(NodeConfig{
		ID:                  id,
		Graph:               c.cfg.Graph,
		Algorithm:           c.cfg.Algorithm,
		Kinds:               c.cfg.Kinds,
		ReoptimizeThreshold: c.cfg.ReoptimizeThreshold,
		ResyncTimeout:       c.cfg.ResyncTimeout,
		ResyncMaxRounds:     c.cfg.ResyncMaxRounds,
		ComputeDelay:        c.cfg.ComputeDelay,
		Logf:                c.cfg.Logf,
		Tracer:              c.cfg.Tracer,
		Registry:            c.cfg.Registry,
		Epoch:               epoch,
		Restore:             snap,
		DataHandler:         dh,
		DataHops:            c.cfg.DataHops,
		FlightRecords:       c.cfg.FlightRecords,
		SampleEvery:         c.cfg.SampleEvery,
	}, c.fabric.Transport(id))
}

// Node returns the node currently serving switch id (nil while killed).
func (c *Cluster) Node(id topo.SwitchID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// Nodes returns the cluster's nodes, indexed by switch ID (nil entries for
// killed switches). The slice is a copy; the nodes are shared.
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Node, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// KillNode crashes switch id: its goroutines stop, its transport attachment
// closes, and every frame queued for it is dropped — no farewell, no
// link-state event, exactly like a power cut. Requires a ChanFabric (the
// only fabric whose attachments can die independently).
func (c *Cluster) KillNode(id topo.SwitchID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: KillNode requires a ChanFabric")
	}
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("rt: no switch %d", id)
	}
	n := c.nodes[id]
	if n == nil {
		return fmt.Errorf("rt: switch %d is already dead", id)
	}
	// Kill the transport first so the node's receive loop exits, then stop
	// the goroutines. Frames other nodes send it meanwhile fail or drop.
	if err := c.chanFab.Kill(id); err != nil {
		return err
	}
	n.Close()
	c.nodes[id] = nil
	return nil
}

// RestartNode boots a fresh incarnation of a killed switch at the next
// restart epoch. With a snapshot, the incarnation resumes from the captured
// protocol state; without one it boots blank. Either way it immediately
// runs the cold-rejoin path — asking every neighbor for a full replay —
// because even a snapshot is stale by however long the switch was down.
func (c *Cluster) RestartNode(id topo.SwitchID, snap *NodeSnapshot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: RestartNode requires a ChanFabric")
	}
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("rt: no switch %d", id)
	}
	if c.nodes[id] != nil {
		return fmt.Errorf("rt: switch %d is not dead", id)
	}
	if err := c.chanFab.Reset(id); err != nil {
		return err
	}
	c.epochs[id]++
	n, err := c.newNode(id, c.epochs[id], snap)
	if err != nil {
		return err
	}
	if prev := c.last[id]; prev != nil {
		prev.succ.Store(n) // keep registry closures pointed at the live machine
	}
	c.nodes[id] = n
	c.last[id] = n
	c.restarts.Inc()
	n.RejoinFromNeighbors()
	return nil
}

// Partition splits the fabric into groups: every frame between switches in
// different groups is silently dropped from now on. Requires a ChanFabric.
func (c *Cluster) Partition(groups [][]topo.SwitchID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: Partition requires a ChanFabric")
	}
	cp := make([][]topo.SwitchID, len(groups))
	for i, g := range groups {
		cp[i] = append([]topo.SwitchID(nil), g...)
	}
	c.partition = cp
	c.chanFab.SetPartition(cp)
	return nil
}

// Heal removes the active partition and starts heal reconciliation on both
// ends of every graph link the partition had cut: each boundary switch
// advertises its R to its re-reachable neighbor and asks for the log suffix
// beyond it; replayed events re-flood into the interior, so the whole
// network converges to the union of what the sides learned apart.
func (c *Cluster) Heal() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chanFab == nil {
		return fmt.Errorf("rt: Heal requires a ChanFabric")
	}
	if c.partition == nil {
		return fmt.Errorf("rt: no active partition")
	}
	group := map[topo.SwitchID]int{}
	for i, g := range c.partition {
		for _, s := range g {
			group[s] = i
		}
	}
	c.partition = nil
	c.chanFab.ClearPartition()
	for s := 0; s < c.graph.NumSwitches(); s++ {
		a := topo.SwitchID(s)
		for _, b := range c.graph.Neighbors(a) {
			ga, oka := group[a]
			gb, okb := group[b]
			if a < b && oka && okb && ga != gb {
				if c.nodes[a] != nil {
					c.nodes[a].Reconcile(b)
				}
				if c.nodes[b] != nil {
					c.nodes[b].Reconcile(a)
				}
			}
		}
	}
	c.healed.Inc()
	return nil
}

// Join injects a join at switch sw for conn.
func (c *Cluster) Join(sw topo.SwitchID, conn lsa.ConnID, role mctree.Role) error {
	n := c.aliveNode(sw)
	if n == nil {
		return fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.Join(conn, role)
}

// Leave injects a leave at switch sw for conn.
func (c *Cluster) Leave(sw topo.SwitchID, conn lsa.ConnID) error {
	n := c.aliveNode(sw)
	if n == nil {
		return fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.Leave(conn)
}

// SendData originates one payload on conn at switch sw. Errors if the
// switch is dead or may not send (see Node.SendData).
func (c *Cluster) SendData(sw topo.SwitchID, conn lsa.ConnID, payload []byte) (uint64, error) {
	n := c.aliveNode(sw)
	if n == nil {
		return 0, fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.SendData(conn, payload)
}

// SendDataBatch originates count copies of payload on conn at switch sw in
// one batched call (see Node.SendDataBatch); it satisfies
// workload.BatchSender so the load generator amortizes per-send setup.
func (c *Cluster) SendDataBatch(sw topo.SwitchID, conn lsa.ConnID, payload []byte, count int) (uint64, int, error) {
	n := c.aliveNode(sw)
	if n == nil {
		return 0, 0, fmt.Errorf("rt: no live switch %d", sw)
	}
	return n.SendDataBatch(conn, payload, count)
}

// ForwardStats sums the data-plane counters across switches: live nodes
// plus the latest incarnation of any currently-dead switch. A crashed
// incarnation's counters vanish with it, exactly as a real switch's would.
func (c *Cluster) ForwardStats() ForwardStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum ForwardStats
	seen := map[*Node]bool{}
	add := func(n *Node) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		sum.add(n.ForwardStats())
	}
	for _, n := range c.nodes {
		add(n)
	}
	for _, n := range c.last {
		add(n)
	}
	return sum
}

// aliveNode returns the live node for sw, or nil if out of range or dead.
func (c *Cluster) aliveNode(sw topo.SwitchID) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if int(sw) < 0 || int(sw) >= len(c.nodes) {
		return nil
	}
	return c.nodes[sw]
}

// activity sums the live nodes' work counters.
func (c *Cluster) activity() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum uint64
	for _, n := range c.nodes {
		if n != nil {
			sum += n.activity.Load()
		}
	}
	return sum
}

// quiet reports whether every live node is idle and (when countable) no
// frames are in flight.
func (c *Cluster) quiet() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		if n != nil && !n.idle() {
			return false
		}
	}
	return c.chanFab == nil || c.chanFab.InFlight() == 0
}

// Settle blocks until the cluster has been quiescent — every node idle, no
// countable frames in flight, and no work completed anywhere — for idleFor,
// or errors after timeout. Over UDP, in-flight datagrams are invisible, so
// idleFor must comfortably exceed the fabric's delivery latency (loopback:
// sub-millisecond; the defaults used by tests are far above it).
func (c *Cluster) Settle(idleFor, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	last := c.activity()
	lastChange := time.Now()
	for {
		time.Sleep(2 * time.Millisecond)
		now := time.Now()
		if act := c.activity(); act != last || !c.quiet() {
			last = act
			lastChange = now
		} else if now.Sub(lastChange) >= idleFor {
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("rt: cluster did not settle within %v", timeout)
		}
	}
}

// CheckAgreement verifies the cluster-wide convergence invariant, the live
// counterpart of core.Domain.CheckConverged: for every live connection,
// every node agrees on the member list and the committed stamp, each node's
// stamps are mutually consistent (R = C, R ≥ E), and with two or more
// members all nodes have installed the same valid topology spanning them.
func (c *Cluster) CheckAgreement() error {
	nodes := c.Nodes()
	alive := nodes[:0]
	for _, n := range nodes {
		if n != nil {
			alive = append(alive, n)
		}
	}
	nodes = alive
	conns := map[lsa.ConnID]bool{}
	for _, n := range nodes {
		for _, id := range n.Connections() {
			conns[id] = true
		}
	}
	for conn := range conns {
		var ref core.Snapshot
		var refNode topo.SwitchID
		first := true
		for _, n := range nodes {
			snap, ok := n.Connection(conn)
			if !ok {
				return fmt.Errorf("conn %d: switch %d has no state", conn, n.ID())
			}
			if !snap.R.Equal(snap.C) {
				return fmt.Errorf("conn %d: switch %d uncommitted (R=%s C=%s)", conn, n.ID(), snap.R, snap.C)
			}
			if !snap.R.Geq(snap.E) {
				return fmt.Errorf("conn %d: switch %d still expects LSAs (R=%s E=%s)", conn, n.ID(), snap.R, snap.E)
			}
			if first {
				ref, refNode, first = snap, n.ID(), false
				continue
			}
			if !snap.Members.Equal(ref.Members) {
				return fmt.Errorf("conn %d: members disagree between switches %d and %d", conn, refNode, n.ID())
			}
			if !snap.C.Equal(ref.C) {
				return fmt.Errorf("conn %d: commit stamps disagree between switches %d and %d (%s vs %s)",
					conn, refNode, n.ID(), ref.C, snap.C)
			}
			if (snap.Topology == nil) != (ref.Topology == nil) ||
				(snap.Topology != nil && !snap.Topology.Equal(ref.Topology)) {
				return fmt.Errorf("conn %d: topologies disagree between switches %d and %d", conn, refNode, n.ID())
			}
		}
		if len(ref.Members) >= 2 {
			if ref.Topology == nil {
				return fmt.Errorf("conn %d: %d members but no installed topology", conn, len(ref.Members))
			}
			if err := ref.Topology.Validate(c.graph, ref.Members); err != nil {
				return fmt.Errorf("conn %d: installed topology invalid: %v", conn, err)
			}
		}
	}
	return nil
}

// WaitConverged settles and checks agreement repeatedly until it holds or
// timeout elapses. Over lossy transports convergence can require resync
// rounds, so a failed check is retried, not fatal.
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	idleFor := 25 * time.Millisecond
	if c.chanFab == nil {
		idleFor = 100 * time.Millisecond // UDP: cover in-flight datagrams
	}
	var lastErr error
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("rt: never settled")
			}
			return fmt.Errorf("rt: cluster did not converge within %v: %w", timeout, lastErr)
		}
		if err := c.Settle(idleFor, remain); err != nil {
			lastErr = err
			continue
		}
		if err := c.CheckAgreement(); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
}

// Close shuts down every node, then the fabric.
func (c *Cluster) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	return c.fabric.Close()
}
