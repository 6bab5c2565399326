package core

import (
	"fmt"
	"slices"
	"time"

	"dgmc/internal/flood"
	"dgmc/internal/lsa"
	"dgmc/internal/lsr"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/stamp"
	"dgmc/internal/topo"
)

// This file is the pure D-GMC state machine: one switch's EventHandler and
// ReceiveLSA entities (Figures 4 and 5 of the paper) plus gap recovery,
// with every runtime dependency — flooding, unicast, timers, the cost of a
// topology computation — abstracted behind the Host interface. The same
// Machine runs under the discrete-event simulator (internal/sim via the
// Switch adapter in this package) and under the live concurrent runtime
// (internal/rt), so the protocol is exercised, never forked.

// LocalEvent is what the hosting runtime injects into a switch's event
// path: a membership change for a connection, or a locally detected link
// event (Kind == lsa.Link, with Link describing the change).
type LocalEvent struct {
	Conn lsa.ConnID
	Kind lsa.Event // Join, Leave, or Link
	Role mctree.Role
	Link lsa.LinkChange // for Link events
}

// ResyncNudge is a self-addressed receive-path entry: it runs ReceiveLSA
// with an empty batch, giving Figure 5 line 19 a chance to fire after gap
// recovery set makeProposal (commit-lag recovery). Runtimes deliver it to
// their own switch's receive path when Host.SelfNudge is called.
type ResyncNudge struct{ Conn lsa.ConnID }

// Host abstracts everything a Machine needs from its runtime. The
// simulator implements it with virtual time and the flood.Network fabric;
// the live runtime (internal/rt) implements it with goroutines, real
// timers, and a wire transport.
//
// All methods are invoked synchronously from within Machine calls; a Host
// must not call back into the Machine from them (except from the deferred
// callbacks it schedules for ArmResync and SelfNudge).
type Host interface {
	// FloodMC floods an MC LSA network-wide.
	FloodMC(m *lsa.MC)
	// FloodNonMC floods a non-MC (link-state) LSA network-wide.
	FloodNonMC(nm *lsa.NonMC)
	// SendUnicast sends a resync message point-to-point to a neighbor.
	SendUnicast(to topo.SwitchID, payload any)
	// HoldCompute charges the cost of one topology computation (the
	// paper's Tc). The simulator suspends the calling process for Tc of
	// virtual time — other entities run meanwhile, which is exactly the
	// window the protocol's withdraw checks exist for. Live runtimes
	// usually make this a no-op: the real computation takes real time.
	// ctx is the opaque token passed into HandleLocalEvent/ReceiveBatch.
	HoldCompute(ctx any)
	// PendingMC reports whether the switch's receive queue currently
	// holds an MC LSA for conn (Figure 5 line 22).
	PendingMC(conn lsa.ConnID) bool
	// Neighbors lists the switch's current direct neighbors.
	Neighbors() []topo.SwitchID
	// FabricLinkChanged tells the runtime a locally detected link event
	// was applied. The simulator mirrors it into the shared fabric graph
	// so floods route around failures; live runtimes, where each node
	// owns only its image, may ignore it.
	FabricLinkChanged(change lsa.LinkChange)
	// ArmResync schedules Machine.ResyncFired(conn) to run once after the
	// runtime's resync timeout. Called only when the Machine was built
	// with Resync enabled.
	ArmResync(conn lsa.ConnID)
	// SelfNudge delivers ResyncNudge{conn} to this switch's own receive
	// path (a future ReceiveBatch).
	SelfNudge(conn lsa.ConnID)
	// NoteInstall records that a topology was installed (convergence
	// bookkeeping).
	NoteInstall()
	// ForwardingChanged tells the runtime that forwarding-relevant state
	// for conn (installed topology, membership, or dormancy) may have
	// changed, or — with conn == lsa.AllConns — that the unicast link-state
	// image changed, invalidating contact routes for every connection.
	// Hosts with a data plane recompile their FIB from ForwardingState
	// after the current Machine call returns (not from inside the hook);
	// control-plane-only hosts ignore it.
	ForwardingChanged(conn lsa.ConnID)
	// Trace observes protocol activity; implementations may drop entries.
	// chain names the causal chain the step belongs to (zero when no
	// single local event caused it).
	Trace(kind TraceKind, chain ChainID, conn lsa.ConnID, format string, args ...any)
	// TraceEnabled reports whether Trace currently does anything. The
	// machine's hot paths consult it before building Trace arguments — the
	// variadic call boxes every argument even when the host drops the
	// entry, and those boxes were a measurable share of per-step garbage.
	TraceEnabled() bool
}

// Mutation selects a deliberately seeded protocol bug. The schedule
// exploration harness (internal/explore) uses mutations to validate its
// own invariant checks: a checker that cannot catch a known-broken
// timestamp comparison cannot be trusted to certify the correct one.
// Production configurations leave it at MutationNone.
type Mutation uint8

const (
	// MutationNone runs the protocol as specified.
	MutationNone Mutation = iota
	// MutationAcceptStaleProposal drops the vector-timestamp dominance
	// check on proposal acceptance (Figure 5 line 11): every proposal-
	// carrying event LSA is accepted, so a proposal based on fewer events
	// can overwrite a fresher topology — and, because taking the accept
	// branch skips the inconsistency check, no switch owes the network a
	// correction afterwards. Under concurrent events, specific delivery
	// orders then quiesce with switches installed on different trees.
	MutationAcceptStaleProposal
	// MutationIgnoreEventOrder disables per-origin ordered application of
	// event LSAs (the stale-drop/buffer machinery of applyEventLSA):
	// every arriving copy is applied to the member list immediately, as if
	// the fabric were trusted never to reorder or duplicate. A leave
	// delivered before the join it follows then resurrects the member at
	// that switch when the join's copy lands, and specific delivery orders
	// quiesce with member lists diverged.
	MutationIgnoreEventOrder
	// MutationUncappedPseudoProposal stamps the pseudo-proposal that
	// closes a resync replay (serveResync) with the server's expectation
	// vector E instead of its committed stamp C. After a heal the server's
	// E covers the requester's knowledge too, so a stale installed
	// topology gains a stamp that dominates everything the requester will
	// ever expect and overwrites fresher trees.
	MutationUncappedPseudoProposal
)

// Valid reports whether mu is a defined mutation.
func (mu Mutation) Valid() bool { return mu <= MutationUncappedPseudoProposal }

// String implements fmt.Stringer.
func (mu Mutation) String() string {
	switch mu {
	case MutationNone:
		return "none"
	case MutationAcceptStaleProposal:
		return "accept-stale"
	case MutationIgnoreEventOrder:
		return "ignore-event-order"
	case MutationUncappedPseudoProposal:
		return "uncapped-pseudo-proposal"
	default:
		return fmt.Sprintf("Mutation(%d)", uint8(mu))
	}
}

// Mutations returns every defined mutation, MutationNone first.
func Mutations() []Mutation {
	var out []Mutation
	for mu := MutationNone; mu.Valid(); mu++ {
		out = append(out, mu)
	}
	return out
}

// ParseMutation resolves a mutation by its String name.
func ParseMutation(name string) (Mutation, error) {
	for _, mu := range Mutations() {
		if mu.String() == name {
			return mu, nil
		}
	}
	return MutationNone, fmt.Errorf("core: unknown mutation %q", name)
}

// MachineConfig configures one switch's protocol state machine.
type MachineConfig struct {
	// ID is the switch's network ID. Required to be in [0, Graph.NumSwitches()).
	ID topo.SwitchID
	// Graph is the configured network topology; the machine clones it
	// into its local LSR image. Required.
	Graph *topo.Graph
	// Algorithm computes MC topologies. Required.
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold enables §3.5 re-optimization on link recovery
	// (see Config.ReoptimizeThreshold). Zero disables.
	ReoptimizeThreshold float64
	// Resync enables gap recovery; the timeout itself lives in the Host
	// (virtual for the simulator, wall-clock for live runtimes).
	Resync bool
	// ResyncMaxRounds bounds resync requests per connection per gap
	// (default 64 when resync is enabled).
	ResyncMaxRounds int
	// Metrics receives protocol counters. The simulator shares one
	// Metrics across the domain; live runtimes keep one per node. A nil
	// Metrics is allocated internally.
	Metrics *Metrics
	// Mutation seeds a known protocol bug for checker validation
	// (MutationNone for correct operation).
	Mutation Mutation
}

// Machine is one switch's D-GMC protocol state: its unicast LSR instance,
// its per-connection protocol state, and the EventHandler/ReceiveLSA
// logic. A Machine is not safe for concurrent use; the hosting runtime
// must serialize calls into it (the simulator by running one process at a
// time, the live runtime with a per-node mutex).
type Machine struct {
	id        topo.SwitchID
	host      Host
	uni       *lsr.Instance
	conns     map[lsa.ConnID]*connState
	n         int
	alg       route.Algorithm
	kinds     map[lsa.ConnID]mctree.Kind
	reopt     float64
	resync    bool
	resyncMax int
	metrics   *Metrics
	mutation  Mutation

	// ids lists the keys of conns in ascending order. It is replaced, never
	// modified, when a connection is added, so clones share it and loops
	// over it are unaffected by additions they cause.
	ids []lsa.ConnID
}

// NewMachine builds a switch's protocol state machine bound to host.
func NewMachine(cfg MachineConfig, host Host) (*Machine, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("core: MachineConfig.Graph is required")
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("core: MachineConfig.Algorithm is required")
	}
	if host == nil {
		return nil, fmt.Errorf("core: nil Host")
	}
	if cfg.ReoptimizeThreshold < 0 {
		return nil, fmt.Errorf("core: negative re-optimization threshold %v", cfg.ReoptimizeThreshold)
	}
	if cfg.ResyncMaxRounds < 0 {
		return nil, fmt.Errorf("core: negative resync round limit %d", cfg.ResyncMaxRounds)
	}
	if cfg.ResyncMaxRounds == 0 {
		cfg.ResyncMaxRounds = 64
	}
	if !cfg.Mutation.Valid() {
		return nil, fmt.Errorf("core: unknown mutation %d", cfg.Mutation)
	}
	uni, err := lsr.NewInstance(cfg.ID, cfg.Graph)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = &Metrics{}
	}
	return &Machine{
		id:        cfg.ID,
		host:      host,
		uni:       uni,
		conns:     make(map[lsa.ConnID]*connState),
		n:         cfg.Graph.NumSwitches(),
		alg:       cfg.Algorithm,
		kinds:     cfg.Kinds,
		reopt:     cfg.ReoptimizeThreshold,
		resync:    cfg.Resync,
		resyncMax: cfg.ResyncMaxRounds,
		metrics:   cfg.Metrics,
		mutation:  cfg.Mutation,
	}, nil
}

// ID returns the switch's network ID.
func (m *Machine) ID() topo.SwitchID { return m.id }

// Unicast returns the switch's LSR instance (its local network image).
func (m *Machine) Unicast() *lsr.Instance { return m.uni }

// ForwardingState invokes fn for every live (non-dormant) connection in
// ascending ID order with the state the data plane compiles from: MC kind,
// membership, and the installed topology (nil when none is installed yet).
// The members map and tree are the machine's own — fn must only read them
// and must not retain them beyond the call.
func (m *Machine) ForwardingState(fn func(conn lsa.ConnID, kind mctree.Kind, members mctree.Members, t *mctree.Tree)) {
	for _, id := range m.ids {
		cs := m.conns[id]
		if cs.dormant {
			continue
		}
		fn(id, cs.kind, cs.members, cs.topology)
	}
}

// Metrics returns the machine's counters.
func (m *Machine) Metrics() *Metrics { return m.metrics }

// Connection returns a snapshot of the switch's state for conn, or
// ok=false if the switch holds no state for it.
func (m *Machine) Connection(conn lsa.ConnID) (Snapshot, bool) {
	cs, ok := m.conns[conn]
	if !ok {
		return Snapshot{}, false
	}
	return cs.snapshot(), true
}

// Connections lists the IDs of live (non-dormant) connections at this
// switch.
func (m *Machine) Connections() []lsa.ConnID {
	out := make([]lsa.ConnID, 0, len(m.conns))
	for id, cs := range m.conns {
		if !cs.dormant {
			out = append(out, id)
		}
	}
	return out
}

// kindOf returns the declared MC type for conn (default Symmetric).
func (m *Machine) kindOf(conn lsa.ConnID) mctree.Kind {
	if k, ok := m.kinds[conn]; ok {
		return k
	}
	return mctree.Symmetric
}

// conn returns (allocating if needed) the state for connection id. Per
// §3.4, switches allocate MC data structures when they first hear of the
// connection.
func (m *Machine) conn(id lsa.ConnID) *connState {
	cs, ok := m.conns[id]
	if !ok {
		cs = newConnState(id, m.kindOf(id), m.n)
		m.conns[id] = cs
		// Clipping makes Insert build a new array: the old one may be
		// shared with clones.
		at, _ := slices.BinarySearch(m.ids, id)
		m.ids = slices.Insert(slices.Clip(m.ids), at, id)
	}
	return cs
}

// updateDormancy destroys the connection's heavy state when the member
// list has emptied and no LSAs are known to be outstanding (§3.4). The
// event counters persist (see connState.dormant); a later event resurrects
// the connection.
func (m *Machine) updateDormancy(cs *connState, chain ChainID) {
	if len(cs.members) == 0 && cs.r.Geq(cs.e) {
		if !cs.dormant {
			cs.dormant = true
			cs.topology = nil
			cs.lastDelta = nil
			if m.host.TraceEnabled() {
				m.host.Trace(TraceDestroy, chain, cs.id, "connection state destroyed")
			}
		}
		return
	}
	if cs.dormant && len(cs.members) > 0 {
		cs.dormant = false
	}
}

// HandleLocalEvent dispatches one injected event. A membership event
// invokes EventHandler once; a link event floods one non-MC LSA and then
// invokes EventHandler once per affected connection (Figure 2). ctx is an
// opaque token handed through to Host.HoldCompute (the simulator threads
// its *sim.Process here; live runtimes may pass nil).
func (m *Machine) HandleLocalEvent(ctx any, ev LocalEvent) {
	switch ev.Kind {
	case lsa.Join, lsa.Leave:
		m.eventHandler(ctx, ev.Kind, ev.Role, m.conn(ev.Conn))
	case lsa.Link:
		nm, err := m.uni.ApplyLocalEvent(ev.Link)
		if err != nil {
			if m.host.TraceEnabled() {
				m.host.Trace(TraceError, ChainID{}, ev.Conn, "local link event: %v", err)
			}
			return
		}
		// Keep the runtime's fabric in sync so floods route around the
		// failure (the physical network changed, not just images).
		m.host.FabricLinkChanged(ev.Link)
		m.host.ForwardingChanged(lsa.AllConns)
		m.host.FloodNonMC(nm)
		m.metrics.NonMCLSAs++
		// One MC LSA per connection whose topology uses the affected link.
		for _, cs := range m.affectedConns(ev.Link) {
			cs.lastDelta = nil
			m.eventHandler(ctx, lsa.Link, 0, cs)
		}
		// §3.5 re-optimization: a recovered link may offer better trees.
		if !ev.Link.Down && m.reopt > 0 {
			m.reoptimize(ctx)
		}
	}
}

// reoptimize implements §3.5's policy for non-adverse changes: estimate a
// fresh topology for each live connection on the improved image, and
// signal a link event (re-converging the network) only when the installed
// tree deviates from the fresh one by more than the configured threshold.
func (m *Machine) reoptimize(ctx any) {
	for _, id := range m.ids {
		cs := m.conns[id]
		if cs.dormant || cs.topology == nil || len(cs.members) < 2 {
			continue
		}
		m.metrics.ReoptChecks++
		m.metrics.Computations++
		members := m.filterReachable(cs.members.Clone())
		m.host.HoldCompute(ctx)
		start := time.Now()
		fresh, err := m.alg.Compute(m.uni.Image(), cs.kind, members)
		m.metrics.ComputeNanos += uint64(time.Since(start))
		if err != nil || cs.topology == nil {
			continue
		}
		cur := float64(cs.topology.Cost(m.uni.Image()))
		if cur <= float64(fresh.Cost(m.uni.Image()))*(1+m.reopt) {
			continue // within tolerance of optimal: leave the tree alone
		}
		if m.host.TraceEnabled() {
			m.host.Trace(TraceCompute, ChainID{}, cs.id, "re-optimizing (%.0f%% over fresh cost)",
				100*(cur/float64(fresh.Cost(m.uni.Image()))-1))
		}
		cs.lastDelta = nil
		m.eventHandler(ctx, lsa.Link, 0, cs)
	}
}

// affectedConns returns connections whose installed topology uses the
// changed link, in ascending connection order for determinism.
func (m *Machine) affectedConns(change lsa.LinkChange) []*connState {
	var out []*connState
	for _, id := range m.ids {
		cs := m.conns[id]
		if cs.topology != nil && cs.topology.Has(change.A, change.B) {
			out = append(out, cs)
		}
	}
	return out
}

// eventHandler is Figure 4 of the paper: handle one local event for one
// connection.
func (m *Machine) eventHandler(ctx any, event lsa.Event, role mctree.Role, cs *connState) {
	x := int(m.id)
	m.metrics.Events++
	// This event is the root of a new causal chain: its flooded LSA will
	// carry Stamp[x] == cs.r[x]+1, so remote steps derive the same ID.
	chain := ChainID{Origin: m.id, Seq: cs.r[x] + 1}
	if m.host.TraceEnabled() {
		m.host.Trace(TraceEvent, chain, cs.id, "local %s event", event)
	}

	// Line 1: R[x]++, E[x]++.
	cs.r.Inc(x)
	cs.e.Inc(x)
	// Apply the membership change locally (remote switches learn it from
	// the flooded LSA; Figure 5 line 8 is the receiving-side mirror).
	cs.applyMembership(event, x, role)

	// Line 2: any known outstanding LSAs?
	if cs.r.Geq(cs.e) {
		// Lines 4-5: snapshot R, compute a proposal (takes Tc).
		oldR := cs.r.Clone()
		proposal, err := m.computeTopology(ctx, chain, cs)
		if err != nil {
			if m.host.TraceEnabled() {
				m.host.Trace(TraceError, chain, cs.id, "compute: %v", err)
			}
			proposal = nil
		}
		// Line 6: is the proposal still valid?
		if proposal != nil && cs.r.Equal(oldR) {
			// Lines 7-10: flood proposal, install it. The message owns oldR
			// from here (it is a snapshot never touched again locally, and
			// LSA stamps are read-only on every receive path).
			msg := &lsa.MC{Src: m.id, Event: event, Role: role, Conn: cs.id, Proposal: proposal, Stamp: oldR}
			m.floodMC(chain, msg)
			cs.logEvent(msg)
			cs.c.CopyFrom(oldR)
			cs.makeProposal = false
			m.install(cs, chain, proposal, "event-handler")
		} else {
			// Lines 12-13: withdraw; flood the bare event, defer to
			// ReceiveLSA.
			msg := &lsa.MC{Src: m.id, Event: event, Role: role, Conn: cs.id, Proposal: nil, Stamp: oldR}
			m.floodMC(chain, msg)
			cs.logEvent(msg)
			cs.makeProposal = true
			m.metrics.Withdrawn++
			if m.host.TraceEnabled() {
				m.host.Trace(TraceWithdraw, chain, cs.id, "event-handler proposal withdrawn")
			}
		}
	} else {
		// Lines 16-17: outstanding LSAs exist; flood the bare event and
		// defer to ReceiveLSA.
		msg := &lsa.MC{Src: m.id, Event: event, Role: role, Conn: cs.id, Proposal: nil, Stamp: cs.r.Clone()}
		m.floodMC(chain, msg)
		cs.logEvent(msg)
		cs.makeProposal = true
	}
	m.updateDormancy(cs, chain)
	m.host.ForwardingChanged(cs.id)
	m.maybeScheduleResync(cs)
}

// ReceiveBatch demultiplexes a drained receive-queue batch: non-MC LSAs go
// to the unicast substrate; MC LSAs are grouped per connection and handed
// to ReceiveLSA (which the paper presents per-MC). Resync traffic (unicast
// requests/replays between neighbors, and self-addressed nudges) rides the
// same queue: replayed LSAs join the per-connection groups, requests are
// served after ReceiveLSA has consumed the batch.
//
// Accepted batch entries: flood.Delivery (payload *lsa.MC, *lsa.NonMC, or
// their []byte wire encoding), flood.Unicast (payload *lsa.ResyncRequest
// or *lsa.ResyncResponse), bare *lsa.MC / *lsa.NonMC / *lsa.ResyncRequest /
// *lsa.ResyncResponse, and ResyncNudge. Anything else is ignored.
func (m *Machine) ReceiveBatch(ctx any, batch []any) {
	perConn := make(map[lsa.ConnID][]*lsa.MC)
	var order []lsa.ConnID
	var requests []*lsa.ResyncRequest
	var replayed map[*lsa.MC]bool
	addMC := func(mc *lsa.MC) {
		if _, seen := perConn[mc.Conn]; !seen {
			order = append(order, mc.Conn)
		}
		perConn[mc.Conn] = append(perConn[mc.Conn], mc)
	}
	handleNonMC := func(nm *lsa.NonMC) {
		changed, err := m.uni.HandleLSA(nm)
		if err != nil {
			if m.host.TraceEnabled() {
				m.host.Trace(TraceError, ChainID{}, 0, "unicast LSA: %v", err)
			}
			return
		}
		if changed {
			m.host.ForwardingChanged(lsa.AllConns)
		}
	}
	var consume func(raw any)
	consume = func(raw any) {
		switch v := raw.(type) {
		case ResyncNudge:
			if _, seen := perConn[v.Conn]; !seen {
				order = append(order, v.Conn)
				perConn[v.Conn] = nil
			}
		case *lsa.ResyncRequest:
			requests = append(requests, v)
		case *lsa.ResyncResponse:
			for _, mc := range v.Batch {
				if replayed == nil {
					replayed = make(map[*lsa.MC]bool)
				}
				replayed[mc] = true
				addMC(mc)
			}
		case flood.Unicast:
			consume(v.Payload)
		case flood.Delivery:
			payload := v.Payload
			if wire, ok := payload.([]byte); ok {
				mc, nm, err := lsa.Unmarshal(wire)
				if err != nil {
					if m.host.TraceEnabled() {
						m.host.Trace(TraceError, ChainID{}, 0, "decode LSA: %v", err)
					}
					return
				}
				if mc != nil {
					payload = mc
				} else {
					payload = nm
				}
			}
			consume(payload)
		case *lsa.NonMC:
			handleNonMC(v)
		case *lsa.MC:
			addMC(v)
		}
	}
	for _, raw := range batch {
		consume(raw)
	}
	for _, conn := range order {
		m.receiveLSA(ctx, m.conn(conn), perConn[conn], replayed)
	}
	for _, req := range requests {
		m.handleResyncRequest(req)
	}
}

// receiveLSA is Figure 5 of the paper: process a batch of LSAs for one
// connection, then decide whether to compute and flood a proposal.
// replayed marks batch entries that arrived in a resync replay rather than
// a flood (nil when none did).
func (m *Machine) receiveLSA(ctx any, cs *connState, batch []*lsa.MC, replayed map[*lsa.MC]bool) {
	x := int(m.id)

	// Lines 1-2. candidateStamp is only read when candidate is non-nil, and
	// every assignment of candidate assigns it too, so it needs no initial
	// clone of C.
	var candidate *mctree.Tree
	var candidateStamp stamp.Stamp
	// batchChain attributes the steps this batch causes (computations,
	// triggered floods, installs) to the most recent event applied; an
	// installed candidate is attributed to the LSA that carried it.
	var batchChain, candidateChain ChainID

	// Lines 3-18: consume the LSAs.
	for _, msg := range batch {
		if m.host.TraceEnabled() {
			m.host.Trace(TraceRecv, chainOf(msg), cs.id, "recv %s", msg)
		}
		// Lines 5-9: an event LSA advances R and the member list. A lossy
		// transport can deliver copies duplicated or out of per-origin
		// order, so application is ordered: stale copies are dropped, early
		// ones buffered, and applying one event can release buffered
		// successors — which are then consumed as if freshly received. On a
		// loss-free transport this degenerates to the paper's lines 5-9.
		for _, a := range m.applyEventLSA(cs, msg) {
			if a.Event.IsEvent() {
				batchChain = chainOf(a)
				// An event learned through a replay was never flooded to the
				// rest of the network by this switch's side of the exchange.
				// Flood it onward (the OSPF rule for LSAs learned during
				// database exchange), so knowledge recovered across a healed
				// boundary propagates transitively instead of stopping at
				// the reconciling pair. Copies reaching switches that
				// already applied the event are stale-dropped; re-flooding
				// is bounded because only replay arrivals qualify — the
				// forwarded copies themselves arrive as ordinary floods.
				if replayed[a] {
					m.metrics.Replays++
					m.floodMC(batchChain, a)
				}
			}
			// Line 10: merge any new expectations.
			cs.e.MaxInPlace(a.Stamp)
			// Lines 11-17. The stamp dominance check is the seeded-bug
			// site for MutationAcceptStaleProposal (checker validation).
			dominates := a.Stamp.Geq(cs.e)
			if m.mutation == MutationAcceptStaleProposal {
				dominates = true
			}
			if dominates && a.Proposal != nil {
				// The proposal is based on every event known to this switch.
				// Aliasing a.Stamp is safe: received stamps are read-only.
				candidate = a.Proposal
				candidateStamp = a.Stamp
				candidateChain = chainOf(a)
				cs.makeProposal = false
			} else if cs.r[x] > a.Stamp[x] {
				// Inconsistency: the sender did not know about all our local
				// events; we owe the network a proposal.
				cs.makeProposal = true
			}
		}
	}

	// Line 19: compute a proposal if owed, expectations met, and the basis
	// would be fresher than the installed topology.
	if cs.makeProposal && cs.r.Geq(cs.e) && cs.r.Greater(cs.c) {
		// Line 20-21: snapshot R, compute (takes Tc).
		oldR := cs.r.Clone()
		proposal, err := m.computeTopology(ctx, batchChain, cs)
		if err != nil {
			if m.host.TraceEnabled() {
				m.host.Trace(TraceError, batchChain, cs.id, "compute: %v", err)
			}
			proposal = nil
		}
		// Line 22: still current, and nothing new queued for this MC?
		if proposal != nil && !m.host.PendingMC(cs.id) && cs.r.Equal(oldR) {
			// Lines 23-27: flood as a triggered LSA (V = none).
			m.floodMC(batchChain, &lsa.MC{Src: m.id, Event: lsa.None, Conn: cs.id, Proposal: proposal, Stamp: oldR})
			cs.e.CopyFrom(cs.r) // line 24: bring E up to date
			candidate = proposal
			candidateStamp = oldR
			candidateChain = batchChain
			cs.makeProposal = false
		} else {
			// Lines 28-30: withdraw.
			candidate = nil
			m.metrics.Withdrawn++
			if m.host.TraceEnabled() {
				m.host.Trace(TraceWithdraw, batchChain, cs.id, "triggered proposal withdrawn")
			}
		}
	}

	// Lines 32-35: accept the best proposal seen.
	if candidate != nil {
		cs.c.CopyFrom(candidateStamp)
		m.install(cs, candidateChain, candidate, "receive-lsa")
	}
	m.updateDormancy(cs, batchChain)
	m.host.ForwardingChanged(cs.id)
	m.maybeScheduleResync(cs)
}

// filterReachable restricts a member set to switches this switch can
// currently reach in its local image. Members cut off by link or nodal
// failures are excluded from topology computations so the reachable part
// of the network still converges on a serviceable tree — each partition
// proceeds with the members it can see (full partition *recovery* remains
// out of scope, as in the paper §6).
func (m *Machine) filterReachable(members mctree.Members) mctree.Members {
	out := make(mctree.Members, len(members))
	var reach map[topo.SwitchID]bool
	for mem, role := range members {
		if mem == m.id {
			out[mem] = role
			continue
		}
		if reach == nil {
			reach = make(map[topo.SwitchID]bool)
			for _, r := range m.uni.Image().Component(m.id) {
				reach[r] = true
			}
		}
		if reach[mem] {
			out[mem] = role
		}
	}
	return out
}

// computeTopology runs the configured algorithm over this switch's local
// image, charging Tc via the host (the computation is the protocol's
// dominant cost, Figure 4 line 5 / Figure 5 line 21).
func (m *Machine) computeTopology(ctx any, chain ChainID, cs *connState) (*mctree.Tree, error) {
	m.metrics.Computations++
	if m.host.TraceEnabled() {
		m.host.Trace(TraceCompute, chain, cs.id, "computing topology (members=%d)", len(cs.members))
	}
	members := cs.members.Clone() // membership snapshot: may change during Tc
	delta := cs.lastDelta
	prev := cs.topology
	m.host.HoldCompute(ctx)
	// Wall-clock cost of the algorithm itself (the virtual Tc is charged by
	// HoldCompute above and deliberately excluded here).
	start := time.Now()
	defer func() { m.metrics.ComputeNanos += uint64(time.Since(start)) }()
	// Reachability is evaluated against the image as of the end of the
	// computation: link/nodal LSAs applied during Tc must not leave us
	// asking the algorithm to span a switch the network can no longer
	// reach (members cut off by failures are served again after repair or
	// timed out by the application; the paper defers partition recovery).
	members = m.filterReachable(members)
	t, err := m.alg.Update(m.uni.Image(), cs.kind, members, prev, delta)
	if err != nil {
		return nil, err
	}
	// An incremental update is only a hint about the latest change; when
	// several changes accumulated since the previous topology (e.g. two
	// joins in one LSA batch) the result may not span every member. Fall
	// back to a from-scratch computation in that case.
	if t.Validate(m.uni.Image(), members) != nil {
		return m.alg.Compute(m.uni.Image(), cs.kind, members)
	}
	return t, nil
}

// floodMC floods an MC LSA network-wide via the host.
func (m *Machine) floodMC(chain ChainID, msg *lsa.MC) {
	m.metrics.MCLSAs++
	if m.host.TraceEnabled() {
		m.host.Trace(TraceFlood, chain, msg.Conn, "flood %s", msg)
	}
	m.host.FloodMC(msg)
}

// install records the accepted topology and updates the switch's MC routing
// entries (its tree-adjacent links).
func (m *Machine) install(cs *connState, chain ChainID, t *mctree.Tree, via string) {
	cs.topology = t
	cs.installs++
	m.metrics.Installs++
	m.host.NoteInstall()
	if m.host.TraceEnabled() {
		m.host.Trace(TraceInstall, chain, cs.id, "installed %s via %s", t, via)
	}
}

// GapBufferDepth returns the number of event LSAs currently buffered out of
// per-origin order across every connection (observability: a sustained
// non-zero depth means losses are outrunning gap recovery).
func (m *Machine) GapBufferDepth() int {
	total := 0
	for _, cs := range m.conns {
		total += cs.oooCount
	}
	return total
}
