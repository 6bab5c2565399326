package rt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/obs"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// NodeConfig configures one live switch.
type NodeConfig struct {
	// ID is the switch's network ID in [0, Graph.NumSwitches()).
	ID topo.SwitchID
	// Graph is the configured fabric topology; the node's neighbor set and
	// its protocol machine's initial image both come from it. Required.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH).
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// ReoptimizeThreshold enables §3.5 re-optimization (zero disables).
	ReoptimizeThreshold float64
	// ResyncTimeout enables gap recovery with the given wall-clock timeout;
	// zero disables. Mandatory in practice over lossy transports (UDP).
	ResyncTimeout time.Duration
	// ResyncMaxRounds bounds resync rounds per gap (default 64).
	ResyncMaxRounds int
	// ComputeDelay, when positive, makes HoldCompute sleep that long —
	// widening the protocol's withdraw windows the way the simulator's
	// virtual Tc does. Zero (the default) lets computation take the real
	// time it takes.
	ComputeDelay time.Duration
	// EventBuffer sizes the local-event queue (default 256).
	EventBuffer int
	// Logf, when set, receives protocol trace lines.
	Logf func(format string, args ...any)
	// Tracer, when set, receives structured protocol trace entries (for
	// span collection); it must be safe for concurrent use.
	Tracer core.Tracer
	// Registry, when set, receives the node's runtime metrics (counters,
	// gauges, histograms, labeled per switch). nil disables metrics with
	// near-zero overhead.
	Registry *obs.Registry
	// DataHandler, when set, receives every payload delivered to this
	// switch's co-resident application by the data plane (the switch is a
	// receiving member of conn). It is called from the transport receive
	// goroutine and must not block or retain payload, which aliases a pooled
	// receive buffer valid only for the duration of the call.
	DataHandler DataHandler
	// DataHops is the hop budget stamped on payload frames this node
	// originates (default DefaultDataHops, max lsa.MaxDataHops). The budget
	// is the data plane's only loop guard while trees at different switches
	// transiently disagree during reconvergence.
	DataHops int
	// FlightRecords, when positive, enables the node's flight recorder: a
	// lock-free, allocation-free ring holding the last N data/control
	// events (forwards, the drop taxonomy, FIB swaps, LSA batches, resync
	// firings, reconciles, rejoins), snapshotted via FlightDoc for the
	// /flightrec admin endpoint. Rounded up to a power of two, min 16.
	FlightRecords int
	// SampleEvery, when positive (and FlightRecords is set), enables
	// 1-in-N packet path sampling: every data frame whose per-source
	// sequence is a multiple of SampleEvery gets a per-hop trace record in
	// a second ring of the same size, which the offline reconstructor
	// (obs.ReconstructPaths) joins into hop-by-hop path reports. The
	// decision is a pure function of the sequence number every frame
	// already carries, so all hops sample the same packets with no extra
	// wire bits.
	SampleEvery int
	// Epoch is the node's restart epoch (zero for a first boot). It
	// namespaces the node's flood sequence numbers — seq = epoch<<48 |
	// counter — so frames originated by a previous incarnation can never
	// collide with, or be mistaken for, frames from this one: receivers'
	// duplicate-suppression windows slide forward to the new epoch on first
	// contact and then discard any stale pre-crash frame still in flight.
	Epoch uint64
	// Restore, when set, boots the node from a snapshot of a previous
	// incarnation's protocol state instead of a blank machine. The snapshot
	// must be for the same switch ID. Pair with a bumped Epoch.
	Restore *NodeSnapshot
}

// Node is one live switch: a core.Machine guarded by a mutex, driven by the
// goroutine cluster NewNode starts — a transport receive loop (decode,
// duplicate-suppress, store-and-forward re-flood, enqueue), an LSA loop
// (drain the inbox, run ReceiveLSA batches), an event loop (run
// EventHandler per injected local event), and wall-clock resync timers.
type Node struct {
	id        topo.SwitchID
	epoch     uint64
	tr        Transport
	neighbors []topo.SwitchID
	logf      func(format string, args ...any)
	tracer    core.Tracer
	obs       nodeObs

	// succ points to the node that replaced this one after a crash–restart.
	// Metric closures registered by the first incarnation follow the chain
	// (see nodeObs), so a shared registry keeps reporting the live machine
	// instead of a corpse.
	succ atomic.Pointer[Node]

	// mu serializes all access to machine (it is not concurrency-safe).
	// Lock order: mu before inMu — the machine calls PendingMC/SelfNudge
	// (which take inMu) while mu is held, and the LSA loop never acquires
	// mu while holding inMu.
	mu      sync.Mutex
	machine *core.Machine
	// fibDirty marks that the last machine call reported a forwarding
	// change (Host.ForwardingChanged); guarded by mu. Every machine call
	// site runs maybeRecompileLocked before releasing mu, so the swapped
	// table can never lag the control plane by more than the call that is
	// currently holding the lock.
	fibDirty bool

	// fib is the data plane's forwarding table, recompiled from machine
	// state on every forwarding change and swapped atomically — the forward
	// hot path (handleData/SendData) reads it without taking mu.
	fib         atomic.Pointer[fib.Table]
	fibCompiles atomic.Uint64
	dataHandler DataHandler
	dataHops    uint8
	dataSeq     atomic.Uint64
	fwd         forwardStripes

	// flight is the event ring ("black box"); hopRec the sampled per-hop
	// trace ring, kept separate so bursts of ordinary events cannot evict
	// the sparse sampled-path evidence. Both nil when disabled — every
	// Record call is nil-safe, so the hot path pays one branch each.
	flight      *obs.FlightRecorder
	hopRec      *obs.FlightRecorder
	sampleEvery int

	// inbox is the receive queue feeding the LSA loop: decoded LSAs and
	// resync messages. Unbounded — backpressure on the receive path would
	// deadlock flood storms (see ChanFabric).
	inMu     sync.Mutex
	inCond   *sync.Cond
	inbox    []any
	inClosed bool

	events chan core.LocalEvent

	// seq numbers this node's originated floods; seen suppresses duplicate
	// flood deliveries by (origin, seq) in O(origins) space (see seen.go —
	// this used to be an unbounded map that grew with every flood ever
	// delivered, a memory leak under soak).
	seq  atomic.Uint64
	seen seenTracker

	computeDelay time.Duration
	resyncAfter  time.Duration

	timerMu sync.Mutex
	timers  map[*time.Timer]struct{}

	// busy counts in-flight protocol handlers; activity counts completed
	// units of work (frames handled, batches processed, events handled).
	// The harness polls both to detect quiescence.
	busy       atomic.Int64
	activity   atomic.Uint64
	decodeErrs atomic.Uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewNode builds the node, binds it to tr, and starts its goroutines.
func NewNode(cfg NodeConfig, tr Transport) (*Node, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("rt: NodeConfig.Graph is required")
	}
	if tr == nil {
		return nil, fmt.Errorf("rt: nil Transport")
	}
	if cfg.Algorithm == nil {
		cfg.Algorithm = route.SPH{}
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	if cfg.DataHops <= 0 {
		cfg.DataHops = DefaultDataHops
	}
	if cfg.DataHops > lsa.MaxDataHops {
		cfg.DataHops = lsa.MaxDataHops
	}
	if cfg.Restore != nil && cfg.Restore.id != cfg.ID {
		return nil, fmt.Errorf("rt: snapshot of switch %d cannot restore switch %d", cfg.Restore.id, cfg.ID)
	}
	n := &Node{
		id:           cfg.ID,
		epoch:        cfg.Epoch,
		tr:           tr,
		neighbors:    cfg.Graph.Neighbors(cfg.ID),
		logf:         cfg.Logf,
		tracer:       cfg.Tracer,
		obs:          newNodeObs(cfg.Registry, int(cfg.ID)),
		events:       make(chan core.LocalEvent, cfg.EventBuffer),
		dataHandler:  cfg.DataHandler,
		dataHops:     uint8(cfg.DataHops),
		computeDelay: cfg.ComputeDelay,
		resyncAfter:  cfg.ResyncTimeout,
		timers:       make(map[*time.Timer]struct{}),
		closed:       make(chan struct{}),
	}
	n.inCond = sync.NewCond(&n.inMu)
	if cfg.FlightRecords > 0 {
		n.flight = obs.NewFlightRecorder(cfg.FlightRecords)
		if cfg.SampleEvery > 0 {
			n.hopRec = obs.NewFlightRecorder(cfg.FlightRecords)
			n.sampleEvery = cfg.SampleEvery
		}
	}
	// Seed the flood sequence counter into this incarnation's epoch window.
	// 48 bits of counter per epoch is beyond any realistic uptime, and the
	// jump past every prior epoch is what invalidates stale pre-crash frames
	// at the receivers' duplicate-suppression windows.
	n.seq.Store(cfg.Epoch << 48)
	n.dataSeq.Store(cfg.Epoch << 48)
	if cfg.Restore != nil {
		if err := cfg.Restore.verify(); err != nil {
			return nil, err
		}
		// Adopt a copy bound to this node, leaving the snapshot reusable.
		n.machine = cfg.Restore.machine.CloneWith(n)
	} else {
		m, err := core.NewMachine(core.MachineConfig{
			ID:                  cfg.ID,
			Graph:               cfg.Graph,
			Algorithm:           cfg.Algorithm,
			Kinds:               cfg.Kinds,
			ReoptimizeThreshold: cfg.ReoptimizeThreshold,
			Resync:              cfg.ResyncTimeout > 0,
			ResyncMaxRounds:     cfg.ResyncMaxRounds,
		}, n)
		if err != nil {
			return nil, err
		}
		n.machine = m
	}
	n.registerMachineFuncs(cfg.Registry)
	// Compile the initial table before any goroutine can race on it: empty
	// for a blank boot, the restored trees for a snapshot warm restart.
	n.recompileFIBLocked()
	n.wg.Add(3)
	go n.recvLoop()
	go n.lsaLoop()
	go n.eventLoop()
	if cfg.Restore != nil {
		// Gap timers pending at snapshot time died with the old runtime.
		n.machine.ResumeTimers()
	}
	return n, nil
}

// ID returns the switch's network ID.
func (n *Node) ID() topo.SwitchID { return n.id }

// Epoch returns the node's restart epoch (zero for a first boot).
func (n *Node) Epoch() uint64 { return n.epoch }

// live follows the succession chain to the node currently serving this
// switch ID: n itself until a crash–restart replaces it.
func (n *Node) live() *Node {
	cur := n
	for {
		next := cur.succ.Load()
		if next == nil {
			return cur
		}
		cur = next
	}
}

// Reconcile starts heal reconciliation with neighbor nb: for every known
// connection, advertise our R to nb and ask for its log suffix beyond it.
// The cluster harness calls this on both ends of every boundary link when a
// partition heals.
func (n *Node) Reconcile(nb topo.SwitchID) {
	n.busy.Add(1)
	n.flight.Record(obs.RecReconcile, 0, uint32(n.id), 0, uint64(nb))
	n.mu.Lock()
	n.machine.ReconcileNeighbor(nb)
	n.maybeRecompileLocked()
	n.mu.Unlock()
	n.busy.Add(-1)
	n.activity.Add(1)
}

// RejoinFromNeighbors runs the cold-rejoin path after a crash–restart with
// no snapshot: ask every neighbor to replay everything about every
// connection, so the node rebuilds membership, stamps, and — critically —
// its own event counter before it originates anything new.
func (n *Node) RejoinFromNeighbors() {
	n.busy.Add(1)
	n.flight.Record(obs.RecRejoin, 0, uint32(n.id), 0, 0)
	n.mu.Lock()
	n.machine.RequestFullResync()
	n.maybeRecompileLocked()
	n.mu.Unlock()
	n.busy.Add(-1)
	n.activity.Add(1)
}

// Inject hands the node one local event (a join, leave, or link change),
// as the co-resident host application would. It blocks only if the event
// queue is full.
func (n *Node) Inject(ev core.LocalEvent) error {
	select {
	case <-n.closed:
		// Checked separately first: the select below could otherwise pick
		// the buffered send even on a closed node.
		return ErrClosed
	default:
	}
	select {
	case <-n.closed:
		return ErrClosed
	case n.events <- ev:
		return nil
	}
}

// Join injects a membership join for conn with the given role.
func (n *Node) Join(conn lsa.ConnID, role mctree.Role) error {
	return n.Inject(core.LocalEvent{Conn: conn, Kind: lsa.Join, Role: role})
}

// Leave injects a membership leave for conn.
func (n *Node) Leave(conn lsa.ConnID) error {
	return n.Inject(core.LocalEvent{Conn: conn, Kind: lsa.Leave})
}

// Connection returns a snapshot of the node's state for conn.
func (n *Node) Connection(conn lsa.ConnID) (core.Snapshot, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.machine.Connection(conn)
}

// Connections lists the node's live connections in ascending order.
func (n *Node) Connections() []lsa.ConnID {
	n.mu.Lock()
	out := n.machine.Connections()
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Metrics returns a copy of the node's protocol counters.
func (n *Node) Metrics() core.Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return *n.machine.Metrics()
}

// DecodeErrors counts frames dropped as undecodable (corruption, version
// skew, truncation).
func (n *Node) DecodeErrors() uint64 { return n.decodeErrs.Load() }

// FlightEnabled reports whether the node's flight recorder is on.
func (n *Node) FlightEnabled() bool { return n.flight != nil }

// FlightDoc snapshots the node's flight-recorder rings into the JSON
// document the /flightrec admin endpoint serves (and the offline path
// reconstructor consumes). Returns an empty document when the recorder is
// disabled. Never runs on the hot path.
func (n *Node) FlightDoc() *obs.FlightDoc {
	return &obs.FlightDoc{
		Switch:  uint32(n.id),
		Cap:     n.flight.Cap(),
		Written: n.flight.Written(),
		Events:  n.flight.Snapshot(),
		Hops:    n.hopRec.Snapshot(),
	}
}

// Close stops the goroutine cluster and detaches from the transport. It is
// idempotent and waits for the loops to exit.
func (n *Node) Close() error {
	n.closeOnce.Do(func() {
		close(n.closed)
		n.timerMu.Lock()
		for t := range n.timers {
			t.Stop()
		}
		n.timers = nil
		n.timerMu.Unlock()
		n.tr.Close() // unblocks recvLoop
		n.inMu.Lock()
		n.inClosed = true
		n.inCond.Broadcast()
		n.inMu.Unlock()
		n.wg.Wait()
	})
	return nil
}

// --- goroutine cluster ---

// recvLoop is the transport receive loop: decode each frame, suppress
// duplicate floods, re-forward (store-and-forward flooding), and enqueue
// the decoded payload for the LSA loop. Each RecvBatch burst is handled
// under a single busy window.
func (n *Node) recvLoop() {
	defer n.wg.Done()
	var batch [][]byte
	var err error
	for {
		batch, err = n.tr.RecvBatch(batch)
		if err != nil {
			return
		}
		// busy covers the burst so the idle check can't see a gap between
		// frames; each frame leaves the fabric's in-flight count only once
		// it has actually been handled, so InFlight never undercounts (a
		// drain loop waiting for zero stays exact) and closed-loop senders
		// see consumption as it happens rather than in burst-sized steps.
		n.busy.Add(1)
		for _, buf := range batch {
			if !n.handleFrame(buf) {
				// Safe to recycle: every payload decoder copies out of the
				// frame, so nothing enqueued for the LSA loop aliases buf.
				putBuf(buf)
			}
			n.tr.Release(1)
		}
		n.busy.Add(-1)
	}
}

// handleFrame processes one received frame. consumed reports that buf's
// ownership moved into the transport (a data relay's last link) — the
// caller recycles the buffer only when it is false.
func (n *Node) handleFrame(buf []byte) (consumed bool) {
	defer n.activity.Add(1)
	var f lsa.Frame
	if err := lsa.DecodeFrameInto(&f, buf); err != nil {
		n.decodeErrs.Add(1)
		n.tracef("sw%d: drop frame: %v", n.id, err)
		return
	}
	switch f.Kind {
	case lsa.FrameFlood:
		if f.Origin == n.id {
			// Our own flood came back — either a forwarding loop (the relay
			// rule skips the origin, so this should not happen) or a frame
			// originated by a pre-crash incarnation of this switch. Neither
			// must re-enter the machine.
			n.obs.framesDup.Inc()
			return
		}
		if !n.markSeen(f.Origin, f.Seq) {
			n.obs.framesDup.Inc()
			return // duplicate delivery of a flood we already handled
		}
		n.obs.framesRecv.Inc()
		// Store-and-forward: relay to every neighbor except the one that
		// sent it here, rewriting the link-level From in place. Receivers
		// suppress the duplicates this simple rule creates in cycles.
		from := f.From
		if err := lsa.PatchFrameFrom(buf, n.id); err == nil {
			for _, nb := range n.neighbors {
				if nb == from || nb == f.Origin {
					continue
				}
				if err := n.tr.Send(nb, buf); err != nil {
					n.obs.sendErrs.Inc()
					n.tracef("sw%d: forward to %d: %v", n.id, nb, err)
				} else {
					n.obs.floodsFwd.Inc()
				}
			}
		}
		mc, nm, err := lsa.Unmarshal(f.Payload)
		if err != nil {
			n.decodeErrs.Add(1)
			n.tracef("sw%d: drop LSA from %d: %v", n.id, f.Origin, err)
			return
		}
		if mc != nil {
			n.obs.mcReceived(mc.Conn)
			n.enqueue(mc)
		} else {
			n.enqueue(nm)
		}
	case lsa.FrameResyncReq:
		req, err := lsa.DecodeResyncRequest(f.Payload)
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		n.enqueue(req)
	case lsa.FrameResyncResp:
		resp, err := lsa.DecodeResyncResponse(f.Payload)
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		n.enqueue(resp)
	case lsa.FrameData:
		return n.handleData(buf, &f)
	}
	return false
}

// markSeen records a flood identity, reporting whether it was new.
func (n *Node) markSeen(origin topo.SwitchID, seq uint64) bool {
	return n.seen.mark(origin, seq)
}

// SeenOrigins returns the number of flood origins the node's duplicate
// suppressor currently tracks — its total state, since each origin costs a
// fixed-size window (the soak test pins this as bounded).
func (n *Node) SeenOrigins() int { return n.seen.size() }

// enqueue appends one decoded message to the inbox and wakes the LSA loop.
func (n *Node) enqueue(msg any) {
	n.inMu.Lock()
	if !n.inClosed {
		n.inbox = append(n.inbox, msg)
		n.inCond.Signal()
	}
	n.inMu.Unlock()
}

// lsaLoop is the ReceiveLSA entity: it drains the inbox and hands each
// batch to the machine, mirroring the simulator's mailbox drain semantics.
func (n *Node) lsaLoop() {
	defer n.wg.Done()
	for {
		n.inMu.Lock()
		for len(n.inbox) == 0 && !n.inClosed {
			n.inCond.Wait()
		}
		if n.inClosed {
			n.inMu.Unlock()
			return
		}
		batch := n.inbox
		n.inbox = nil
		n.busy.Add(1) // before releasing inMu, so idle() can't see a gap
		n.inMu.Unlock()

		var start time.Time
		if n.obs.enabled() {
			start = time.Now()
		}
		n.flight.Record(obs.RecLSAApply, 0, uint32(n.id), 0, uint64(len(batch)))
		n.mu.Lock()
		n.machine.ReceiveBatch(nil, batch)
		n.maybeRecompileLocked()
		n.mu.Unlock()
		if n.obs.enabled() {
			n.obs.batchDur.Observe(time.Since(start).Seconds())
			n.obs.batches.Inc()
		}
		n.busy.Add(-1)
		n.activity.Add(uint64(len(batch)))
	}
}

// eventLoop is the EventHandler entity: one injected local event at a time.
func (n *Node) eventLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case ev := <-n.events:
			n.busy.Add(1)
			var start time.Time
			if n.obs.enabled() {
				start = time.Now()
			}
			n.mu.Lock()
			n.machine.HandleLocalEvent(nil, ev)
			n.maybeRecompileLocked()
			n.mu.Unlock()
			if n.obs.enabled() {
				n.obs.eventDur.Observe(time.Since(start).Seconds())
				n.obs.eventsIn.Inc()
			}
			n.busy.Add(-1)
			n.activity.Add(1)
		}
	}
}

// idle reports whether the node has no queued or in-flight work. Racy by
// nature; the harness requires it to hold across a grace window.
func (n *Node) idle() bool {
	if n.busy.Load() != 0 || len(n.events) != 0 {
		return false
	}
	n.inMu.Lock()
	empty := len(n.inbox) == 0
	n.inMu.Unlock()
	return empty
}

// --- core.Host implementation ---

var _ core.Host = (*Node)(nil)

// flood originates one flood frame, encoded by appendPayload directly into a
// pooled buffer, and sends it to every neighbor.
func (n *Node) flood(appendPayload func([]byte) []byte) {
	seq := n.seq.Add(1)
	n.markSeen(n.id, seq) // a copy looping back must not be re-delivered
	buf := lsa.AppendFrameWith(getBuf(256), &lsa.Frame{
		Version: lsa.FrameVersion, Kind: lsa.FrameFlood,
		Origin: n.id, From: n.id, Seq: seq,
	}, appendPayload)
	n.obs.floodsOrig.Inc()
	for _, nb := range n.neighbors {
		if err := n.tr.Send(nb, buf); err != nil {
			n.obs.sendErrs.Inc()
			n.tracef("sw%d: flood to %d: %v", n.id, nb, err)
		}
	}
	putBuf(buf) // every transport copies on Send
}

// FloodMC implements core.Host.
func (n *Node) FloodMC(m *lsa.MC) {
	n.obs.mcFlooded(m.Conn)
	n.flood(m.AppendMarshal)
}

// FloodNonMC implements core.Host.
func (n *Node) FloodNonMC(nm *lsa.NonMC) { n.flood(nm.AppendMarshal) }

// SendUnicast implements core.Host: frame a resync message point-to-point.
func (n *Node) SendUnicast(to topo.SwitchID, payload any) {
	var appendPayload func([]byte) []byte
	var kind lsa.FrameKind
	switch v := payload.(type) {
	case *lsa.ResyncRequest:
		kind, appendPayload = lsa.FrameResyncReq, v.AppendMarshal
	case *lsa.ResyncResponse:
		kind, appendPayload = lsa.FrameResyncResp, v.AppendMarshal
	default:
		n.tracef("sw%d: unicast of unframeable %T dropped", n.id, payload)
		return
	}
	buf := lsa.AppendFrameWith(getBuf(256), &lsa.Frame{
		Version: lsa.FrameVersion, Kind: kind,
		Origin: n.id, From: n.id, Seq: n.seq.Add(1),
	}, appendPayload)
	n.obs.unicasts.Inc()
	if err := n.tr.Send(to, buf); err != nil {
		n.obs.sendErrs.Inc()
		n.tracef("sw%d: unicast to %d: %v", n.id, to, err)
	}
	putBuf(buf)
}

// HoldCompute implements core.Host: computation takes real time here, so
// this is a no-op unless a delay was configured to widen withdraw windows.
func (n *Node) HoldCompute(any) {
	if n.computeDelay > 0 {
		time.Sleep(n.computeDelay)
	}
}

// PendingMC implements core.Host: scan the inbox for an MC LSA for conn.
// Called with the machine lock held; takes only inMu (see the lock-order
// note on Node.mu).
func (n *Node) PendingMC(conn lsa.ConnID) bool {
	n.inMu.Lock()
	defer n.inMu.Unlock()
	for _, raw := range n.inbox {
		if m, ok := raw.(*lsa.MC); ok && m.Conn == conn {
			return true
		}
	}
	return false
}

// Neighbors implements core.Host. The returned slice is the node's own
// (fixed at construction, read-only by the Host contract); callers must not
// mutate it — copying here put an allocation on every resync round for
// nothing.
func (n *Node) Neighbors() []topo.SwitchID { return n.neighbors }

// FabricLinkChanged implements core.Host. The live fabric's connectivity
// belongs to the transport (real links fail by dropping traffic, not by
// being told), so a locally signaled link event only affects images and
// trees; control traffic keeps using the configured neighbor set.
func (n *Node) FabricLinkChanged(lsa.LinkChange) {}

// ArmResync implements core.Host: a wall-clock timer that re-enters the
// machine (serialized by mu) when it fires.
func (n *Node) ArmResync(conn lsa.ConnID) {
	select {
	case <-n.closed:
		return
	default:
	}
	var t *time.Timer
	t = time.AfterFunc(n.resyncAfter, func() {
		n.timerMu.Lock()
		if n.timers != nil {
			delete(n.timers, t)
		}
		n.timerMu.Unlock()
		select {
		case <-n.closed:
			return
		default:
		}
		n.obs.resyncTmr.Inc()
		n.busy.Add(1)
		n.flight.Record(obs.RecResyncFired, uint32(conn), uint32(n.id), 0, 0)
		n.mu.Lock()
		n.machine.ResyncFired(conn)
		n.maybeRecompileLocked()
		n.mu.Unlock()
		n.busy.Add(-1)
		n.activity.Add(1)
	})
	n.timerMu.Lock()
	if n.timers == nil {
		t.Stop() // closed concurrently
	} else {
		n.timers[t] = struct{}{}
	}
	n.timerMu.Unlock()
}

// SelfNudge implements core.Host: deliver a ResyncNudge through the inbox.
func (n *Node) SelfNudge(conn lsa.ConnID) {
	n.enqueue(core.ResyncNudge{Conn: conn})
}

// NoteInstall implements core.Host. The machine's Metrics.Installs is the
// count.
func (n *Node) NoteInstall() {}

// ForwardingChanged implements core.Host: mark the FIB stale. The machine
// calls this mid-mutation (mu held by the caller driving it), so the actual
// recompile is deferred to maybeRecompileLocked at the machine-call sites —
// one table swap per batch however many installs the batch performed.
func (n *Node) ForwardingChanged(lsa.ConnID) { n.fibDirty = true }

// Trace implements core.Host. Entries are stamped with wall-clock
// nanoseconds since the Unix epoch so spans collected from different nodes
// (or different daemon processes on one machine) share a comparable
// timeline.
func (n *Node) Trace(kind core.TraceKind, chain core.ChainID, conn lsa.ConnID, format string, args ...any) {
	if n.tracer == nil && n.logf == nil {
		return
	}
	detail := fmt.Sprintf(format, args...)
	if n.tracer != nil {
		n.tracer.Trace(core.TraceEntry{
			At:     time.Duration(time.Now().UnixNano()),
			Kind:   kind,
			Switch: n.id,
			Conn:   conn,
			Chain:  chain,
			Detail: detail,
		})
	}
	if n.logf != nil {
		n.logf("sw%d conn%d chain%s [%v] %s", n.id, conn, chain, kind, detail)
	}
}

// TraceEnabled implements core.Host.
func (n *Node) TraceEnabled() bool { return n.tracer != nil || n.logf != nil }

func (n *Node) tracef(format string, args ...any) {
	if n.logf != nil {
		n.logf(format, args...)
	}
}
