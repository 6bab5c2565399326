// Package explore is a systematic schedule-exploration harness — an
// implementation-level model checker — for the D-GMC state machine.
//
// Where internal/model checks an *abstracted* re-statement of the protocol
// (fixed-size stamps, proposals reduced to their basis), this package
// drives the production state machine itself: a set of core.Machine
// instances, one per switch, whose every runtime effect (flooding, unicast
// resync, timers, self-nudges) is captured as a *pending action* instead of
// being executed at some fixed time. The set of pending actions at a world
// state is the set of schedule choice points:
//
//   - injecting the next scenario event at a switch (events at different
//     switches interleave freely; events at one switch keep program order),
//   - delivering any one in-flight advertisement or resync message to its
//     destination — in any order, which subsumes every fabric reordering,
//   - dropping or duplicating an in-flight message (a faults.Choice
//     branched deterministically, within a configured budget, instead of
//     drawn from an RNG as internal/faults does),
//   - firing an armed resync timer.
//
// Exhaustive search (BFS over world states, deduplicated by a canonical
// state hash) visits every reachable interleaving up to the configured
// bounds; seeded random walks sample unboundedly deep schedules. Invariants
// are checked after every transition and at every quiescent state; a
// violation yields a schedule that replays byte-for-byte (see Token) and
// shrinks to a minimal counterexample (see Shrink).
//
// State sharing. Branching a world copies only what one transition can
// write in place — the pending, held and timer lists — and shares the
// rest with the source world:
//
//   - Graphs are immutable values. The fabric graph and every machine's
//     lsr image are replaced by a modified copy when a link changes
//     (worldHost.FabricLinkChanged, lsr.Instance.HandleLSA), never edited.
//   - Machines are copy-on-write. Every call that can change a machine or
//     reach its host goes through World.mut, which clones a shared machine
//     bound to the writing world on its first write and drops the
//     machine's cached AppendState encoding; hash reuses the cached
//     encodings of the machines a transition did not touch. The callers
//     are apply (inject, deliver, fire) and applyFault (heal
//     reconciliation, restart); a crash installs a fresh machine.
//   - Clones never write their source. core.Machine.CloneWith and
//     lsr.Instance.Clone only read the original: live snapshots in
//     internal/rt clone machines too, and one snapshot may be restored
//     into several nodes concurrently.
//
// What is deliberately *not* a choice point: the duration of a topology
// computation. Machine calls are atomic here (Host.HoldCompute is a no-op),
// so the Tc-induced races of the timed implementation — a computation
// completing after further events arrived — are not explored by this
// package; internal/model covers exactly those with its nondeterministic
// computation-completion transitions. The two checkers are complementary.
package explore

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"

	"dgmc/internal/core"
	"dgmc/internal/faults"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/route"
	"dgmc/internal/topo"
)

// Config describes the system under exploration.
type Config struct {
	// Graph is the network topology. Required, and must be connected.
	Graph *topo.Graph
	// Algorithm computes MC topologies (default route.SPH{}). Replay
	// tokens store it by name, so it must be one of the route.ByName set.
	Algorithm route.Algorithm
	// Kinds maps connection IDs to their MC type (default Symmetric).
	Kinds map[lsa.ConnID]mctree.Kind
	// Resync enables the gap-recovery machinery; armed timers become
	// schedule choice points. Required when MaxDrops > 0 (without it, a
	// dropped LSA makes divergence a modeling artifact, not a bug).
	Resync bool
	// ResyncMaxRounds bounds resync requests per connection per gap
	// (default 8 — small state spaces want small budgets).
	ResyncMaxRounds int
	// MaxDrops and MaxDups budget the faults.Drop / faults.Dup outcomes
	// the explorer may choose across one schedule. Zero disables the
	// corresponding branch.
	MaxDrops int
	MaxDups  int
	// Mutation seeds a known protocol bug (checker self-validation).
	Mutation core.Mutation
}

func (c *Config) validate() error {
	if c.Graph == nil {
		return fmt.Errorf("explore: Config.Graph is required")
	}
	if !c.Graph.Connected() {
		return fmt.Errorf("explore: initial topology must be connected")
	}
	if c.Algorithm == nil {
		c.Algorithm = route.SPH{}
	}
	if c.ResyncMaxRounds < 0 {
		return fmt.Errorf("explore: negative resync round limit %d", c.ResyncMaxRounds)
	}
	if c.ResyncMaxRounds == 0 {
		c.ResyncMaxRounds = 8
	}
	if c.MaxDrops < 0 || c.MaxDups < 0 {
		return fmt.Errorf("explore: negative fault budget (drops=%d dups=%d)", c.MaxDrops, c.MaxDups)
	}
	if c.MaxDrops > 0 && !c.Resync {
		return fmt.Errorf("explore: MaxDrops > 0 requires Resync (the paper assumes reliable flooding; without gap recovery a dropped LSA diverges by construction)")
	}
	if !c.Mutation.Valid() {
		return fmt.Errorf("explore: unknown mutation %d", c.Mutation)
	}
	return nil
}

// Inject is one scenario event: a local event handed to a switch's
// EventHandler. Events listed for the same switch fire in list order;
// events at different switches are concurrent (all interleavings explored).
type Inject struct {
	Switch topo.SwitchID
	Event  core.LocalEvent
}

// Scenario is the workload to explore.
type Scenario struct {
	Injects []Inject
	// Faults is the ordered fault lane: partition, heal, crash, and
	// restart operations that fire in list order, each interleaving freely
	// with everything else (see faultops.go). Requires Config.Resync —
	// partition and crash recovery are resync machinery.
	Faults []FaultOp
}

func (s *Scenario) validate(g *topo.Graph) error {
	n := g.NumSwitches()
	for i, inj := range s.Injects {
		if inj.Switch < 0 || int(inj.Switch) >= n {
			return fmt.Errorf("explore: inject %d: switch %d out of range [0,%d)", i, inj.Switch, n)
		}
		switch inj.Event.Kind {
		case lsa.Join:
			if inj.Event.Role == 0 {
				return fmt.Errorf("explore: inject %d: join without role", i)
			}
		case lsa.Leave:
		case lsa.Link:
			if _, ok := g.Link(inj.Event.Link.A, inj.Event.Link.B); !ok {
				return fmt.Errorf("explore: inject %d: no link (%d,%d)", i, inj.Event.Link.A, inj.Event.Link.B)
			}
			if inj.Event.Link.A != inj.Switch && inj.Event.Link.B != inj.Switch {
				return fmt.Errorf("explore: inject %d: link event (%d,%d) not incident to detecting switch %d",
					i, inj.Event.Link.A, inj.Event.Link.B, inj.Switch)
			}
		default:
			return fmt.Errorf("explore: inject %d: invalid event kind %d", i, inj.Event.Kind)
		}
	}
	return validateFaults(s.Faults, g)
}

// pendingMsg is one in-flight message: a flooded LSA copy addressed to one
// destination, a unicast resync message, or a self-addressed nudge.
type pendingMsg struct {
	id      int
	to      topo.SwitchID
	payload any
	// enc is encodePayload(payload), computed once when the payload is
	// sent and shared, read-only, by every copy of the message.
	enc      []byte
	duped    bool // already split once; no further Dup branch
	internal bool // self-nudge: not subject to network faults
}

// timer is an armed resync gap-check at one switch.
type timer struct {
	sw   topo.SwitchID
	conn lsa.ConnID
}

// actionKind discriminates the schedule choice points.
type actionKind uint8

const (
	actInject actionKind = iota
	actDeliver
	actDrop
	actDup
	actFire
	actFault
)

// action is one enabled transition of a world state.
type action struct {
	kind  actionKind
	sw    topo.SwitchID // actInject
	msg   int           // actDeliver/actDrop/actDup: index into pending
	timer int           // actFire: index into timers
	key   []byte        // canonical sort key
}

// World is one global state of the system under exploration: every
// machine's protocol state, the shared fabric graph, and the pending
// action set. Worlds are cloned to branch at choice points.
//
// A clone shares state with its source instead of copying it (see clone):
// the graph, every machine until the clone first writes it, and the
// rarely-written bookkeeping below are shared values that a write replaces
// rather than modifies. A world and its clones belong to one goroutine.
type World struct {
	cfg Config
	scn Scenario
	n   int

	// graph is immutable: FabricLinkChanged installs a modified copy.
	graph *topo.Graph
	// machines[s] may be shared with the world this one was cloned from
	// and with its other clones; owned[s] reports that this world alone
	// holds it, so it may be modified in place. Every write goes through
	// mut. encs[s] caches machines[s].AppendState (nil until hash needs it)
	// and is dropped by mut.
	machines []*core.Machine
	owned    []bool
	encs     [][]byte

	// injectsBySwitch[s] indexes scn.Injects in program order for switch
	// s; injectPos[s] is the next one to fire.
	injectsBySwitch [][]int
	injectPos       []int

	// injectedMembership counts fired Join/Leave injects per connection
	// per originating switch (ground truth for event conservation).
	injectedMembership map[lsa.ConnID][]int

	// pending, held and timers are edited in place, so clone copies them;
	// every other slice and map below is shared and replaced on write.
	pending []pendingMsg
	// held parks frames sent across an active partition: the transport's
	// forwarding/retry machinery would deliver them once connectivity
	// returns, so a heal releases them back into pending (see faultops.go).
	// Non-empty only while a split is active.
	held      []pendingMsg
	timers    []timer
	dropsLeft int
	dupsLeft  int
	nextMsgID int
	installs  int

	// Fault-lane state (see faultops.go). side is nil when no partition is
	// active, else side[s] is s's group. ownHigh[conn][x] records the most
	// events origin x had issued at any crash of x — the origin-authority
	// bound must survive the origin forgetting its own counter. crashedEver
	// switches every quiescent check to the lossy standard; crashedOnce
	// waives event conservation per switch.
	faultPos    int
	side        []int
	crashed     []bool
	crashedOnce []bool
	crashedEver bool
	ownHigh     map[lsa.ConnID][]uint32

	tracing bool
	trace   []string
}

// worldHost adapts one machine's runtime effects into pending actions.
type worldHost struct {
	w  *World
	id topo.SwitchID
}

var _ core.Host = (*worldHost)(nil)

// NewWorld builds the initial world state for (cfg, scn).
func NewWorld(cfg Config, scn Scenario) (*World, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := scn.validate(cfg.Graph); err != nil {
		return nil, err
	}
	if len(scn.Faults) > 0 && !cfg.Resync {
		return nil, fmt.Errorf("explore: fault operations require Resync (partition and crash recovery are resync machinery)")
	}
	n := cfg.Graph.NumSwitches()
	w := &World{
		cfg:                cfg,
		scn:                scn,
		n:                  n,
		graph:              cfg.Graph.Clone(),
		machines:           make([]*core.Machine, n),
		owned:              make([]bool, n),
		encs:               make([][]byte, n),
		injectsBySwitch:    make([][]int, n),
		injectPos:          make([]int, n),
		injectedMembership: make(map[lsa.ConnID][]int),
		dropsLeft:          cfg.MaxDrops,
		dupsLeft:           cfg.MaxDups,
		crashed:            make([]bool, n),
		crashedOnce:        make([]bool, n),
		ownHigh:            make(map[lsa.ConnID][]uint32),
	}
	for i, inj := range scn.Injects {
		w.injectsBySwitch[inj.Switch] = append(w.injectsBySwitch[inj.Switch], i)
	}
	for i := 0; i < n; i++ {
		m, err := core.NewMachine(core.MachineConfig{
			ID:              topo.SwitchID(i),
			Graph:           cfg.Graph,
			Algorithm:       cfg.Algorithm,
			Kinds:           cfg.Kinds,
			Resync:          cfg.Resync,
			ResyncMaxRounds: cfg.ResyncMaxRounds,
			Mutation:        cfg.Mutation,
		}, &worldHost{w: w, id: topo.SwitchID(i)})
		if err != nil {
			return nil, err
		}
		w.machines[i] = m
		w.owned[i] = true
	}
	return w, nil
}

// clone branches the world. It copies only the pending, held and timer
// lists and the per-machine slot slices; machines, their cached encodings,
// the graph and the remaining bookkeeping are shared until one side writes
// them. Both worlds lose ownership of every machine, so whichever writes a
// machine first takes its own copy (see mut). Traces are not inherited:
// clones explore silently, and violating schedules are replayed with
// tracing on.
func (w *World) clone() *World {
	c := &World{
		cfg:                w.cfg,
		scn:                w.scn,
		n:                  w.n,
		graph:              w.graph,
		machines:           append([]*core.Machine(nil), w.machines...),
		owned:              make([]bool, w.n),
		encs:               append([][]byte(nil), w.encs...),
		injectsBySwitch:    w.injectsBySwitch,
		injectPos:          w.injectPos,
		injectedMembership: w.injectedMembership,
		pending:            append([]pendingMsg(nil), w.pending...),
		held:               append([]pendingMsg(nil), w.held...),
		timers:             append([]timer(nil), w.timers...),
		dropsLeft:          w.dropsLeft,
		dupsLeft:           w.dupsLeft,
		nextMsgID:          w.nextMsgID,
		installs:           w.installs,
		faultPos:           w.faultPos,
		side:               w.side,
		crashed:            w.crashed,
		crashedOnce:        w.crashedOnce,
		crashedEver:        w.crashedEver,
		ownHigh:            w.ownHigh,
	}
	clear(w.owned)
	return c
}

// mut returns switch s's machine for writing. The first write to a machine
// the world shares replaces it with a private copy bound to this world;
// every write drops the machine's cached encoding. Every call into a
// machine that can change it or reach its host goes through mut.
func (w *World) mut(s topo.SwitchID) *core.Machine {
	if !w.owned[s] {
		w.machines[s] = w.machines[s].CloneWith(&worldHost{w: w, id: s})
		w.owned[s] = true
	}
	w.encs[s] = nil
	return w.machines[s]
}

// encodePayload renders a pending payload canonically (for sort keys and
// state hashing). Every payload the harness enqueues is covered. It runs
// once per sent payload; the result is kept on pendingMsg.enc.
func encodePayload(p any) []byte {
	switch v := p.(type) {
	case *lsa.MC:
		return append([]byte{'M'}, v.Marshal()...)
	case *lsa.NonMC:
		return append([]byte{'L'}, v.Marshal()...)
	case *lsa.ResyncRequest:
		return append([]byte{'R'}, v.Marshal()...)
	case *lsa.ResyncResponse:
		return append([]byte{'S'}, v.Marshal()...)
	case core.ResyncNudge:
		return binary.BigEndian.AppendUint32([]byte{'N'}, uint32(v.Conn))
	default:
		return []byte{'?'}
	}
}

// appendMsgKey appends a message action's sort key to buf.
func appendMsgKey(buf []byte, kind byte, pm *pendingMsg) []byte {
	buf = append(buf, kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(pm.to)))
	buf = append(buf, pm.enc...)
	// Tie-break identical messages (dup copies) by creation order so the
	// enumeration is a total order.
	return binary.BigEndian.AppendUint32(buf, uint32(pm.id))
}

// enabled enumerates the world's enabled actions in a canonical, replay-
// stable order: injects by switch, then per-message outcome branches
// (deliver, then drop, then dup — the faults.Outcomes order), then timers.
func (w *World) enabled() []action {
	// Key leading bytes order the canonical enumeration: deliveries (0)
	// before faults (1, 2) before timers (3) before injects (4). Choice 0
	// therefore drains in-flight traffic before injecting further events,
	// so the all-zero schedule degrades to fault-free, near-sequential
	// execution — the natural base case for shrinking.
	//
	// The keys share one allocation, sized up front for every branch the
	// budgets allow; each is a capped sub-slice of it.
	branches := 1 // per message: deliver, and drop and dup while budgeted
	if w.dropsLeft > 0 {
		branches++
	}
	if w.dupsLeft > 0 {
		branches++
	}
	size := 1 + 13*len(w.timers) + 5*w.n
	for i := range w.pending {
		size += branches * (9 + len(w.pending[i].enc))
	}
	arena := make([]byte, 0, size)
	out := make([]action, 0, branches*len(w.pending)+len(w.timers)+w.n+1)
	add := func(a action, start int) {
		a.key = arena[start:len(arena):len(arena)]
		out = append(out, a)
	}
	for i := range w.pending {
		pm := &w.pending[i]
		for _, o := range faults.Choices(
			!pm.internal && w.dropsLeft > 0,
			!pm.internal && w.dupsLeft > 0 && !pm.duped,
		) {
			start := len(arena)
			switch o {
			case faults.Deliver:
				arena = appendMsgKey(arena, 0, pm)
				add(action{kind: actDeliver, msg: i}, start)
			case faults.Drop:
				arena = appendMsgKey(arena, 1, pm)
				add(action{kind: actDrop, msg: i}, start)
			case faults.Dup:
				arena = appendMsgKey(arena, 2, pm)
				add(action{kind: actDup, msg: i}, start)
			}
		}
	}
	for i, t := range w.timers {
		start := len(arena)
		arena = binary.BigEndian.AppendUint32(append(arena, 3), uint32(int32(t.sw)))
		arena = binary.BigEndian.AppendUint32(arena, uint32(t.conn))
		arena = binary.BigEndian.AppendUint32(arena, uint32(i))
		add(action{kind: actFire, timer: i}, start)
	}
	for s := 0; s < w.n; s++ {
		// A dead switch accepts no local events; its remaining injects
		// resume after the restart (the fault lane guarantees one comes).
		if w.injectPos[s] < len(w.injectsBySwitch[s]) && !w.crashed[s] {
			start := len(arena)
			arena = binary.BigEndian.AppendUint32(append(arena, 4), uint32(s))
			add(action{kind: actInject, sw: topo.SwitchID(s)}, start)
		}
	}
	if w.faultPos < len(w.scn.Faults) {
		start := len(arena)
		arena = append(arena, 5)
		add(action{kind: actFault}, start)
	}
	slices.SortFunc(out, func(a, b action) int { return bytes.Compare(a.key, b.key) })
	return out
}

// describe renders an action for counterexample traces.
func (w *World) describe(a action) string {
	switch a.kind {
	case actInject:
		idx := w.injectsBySwitch[a.sw][w.injectPos[a.sw]]
		inj := w.scn.Injects[idx]
		if inj.Event.Kind == lsa.Link {
			return fmt.Sprintf("inject %s detected at switch %d", inj.Event.Link, inj.Switch)
		}
		return fmt.Sprintf("inject %s at switch %d (conn %d)", inj.Event.Kind, inj.Switch, inj.Event.Conn)
	case actDeliver:
		pm := w.pending[a.msg]
		return fmt.Sprintf("deliver %s -> switch %d", payloadString(pm.payload), pm.to)
	case actDrop:
		pm := w.pending[a.msg]
		return fmt.Sprintf("drop %s -> switch %d", payloadString(pm.payload), pm.to)
	case actDup:
		pm := w.pending[a.msg]
		return fmt.Sprintf("dup %s -> switch %d", payloadString(pm.payload), pm.to)
	case actFire:
		t := w.timers[a.timer]
		return fmt.Sprintf("fire resync timer at switch %d (conn %d)", t.sw, t.conn)
	case actFault:
		return w.scn.Faults[w.faultPos].String()
	default:
		return fmt.Sprintf("action(%d)", a.kind)
	}
}

func payloadString(p any) string {
	switch v := p.(type) {
	case *lsa.MC:
		return v.String()
	case *lsa.NonMC:
		return v.String()
	case *lsa.ResyncRequest:
		return fmt.Sprintf("resync-req{conn %d from %d R=%s}", v.Conn, v.From, v.R)
	case *lsa.ResyncResponse:
		return fmt.Sprintf("resync-resp{conn %d from %d, %d LSAs}", v.Conn, v.From, len(v.Batch))
	case core.ResyncNudge:
		return fmt.Sprintf("self-nudge{conn %d}", v.Conn)
	default:
		return fmt.Sprintf("%v", p)
	}
}

// applyIndex resolves the i-th enabled action (clamped, so every integer
// is a valid choice — the property Shrink and random walks rely on) and
// applies it. It reports the applied action and false when the world is
// quiescent (nothing enabled).
func (w *World) applyIndex(i int) (action, bool) {
	acts := w.enabled()
	if len(acts) == 0 {
		return action{}, false
	}
	a := acts[((i%len(acts))+len(acts))%len(acts)]
	if w.tracing {
		w.trace = append(w.trace, fmt.Sprintf("step %3d: %s", len(w.trace), w.describe(a)))
	}
	w.apply(a)
	return a, true
}

func (w *World) apply(a action) {
	switch a.kind {
	case actInject:
		idx := w.injectsBySwitch[a.sw][w.injectPos[a.sw]]
		w.injectPos = slices.Clone(w.injectPos)
		w.injectPos[a.sw]++
		inj := w.scn.Injects[idx]
		if inj.Event.Kind == lsa.Join || inj.Event.Kind == lsa.Leave {
			counts := w.injectedMembership[inj.Event.Conn]
			if counts == nil {
				counts = make([]int, w.n)
			} else {
				counts = slices.Clone(counts)
			}
			counts[inj.Switch]++
			w.injectedMembership = maps.Clone(w.injectedMembership)
			w.injectedMembership[inj.Event.Conn] = counts
		}
		w.mut(a.sw).HandleLocalEvent(nil, inj.Event)
	case actDeliver:
		pm := w.pending[a.msg]
		w.removePending(a.msg)
		w.mut(pm.to).ReceiveBatch(nil, []any{pm.payload})
	case actDrop:
		w.removePending(a.msg)
		w.dropsLeft--
	case actDup:
		w.pending[a.msg].duped = true
		cp := w.pending[a.msg]
		cp.id = w.nextMsgID
		w.nextMsgID++
		w.pending = append(w.pending, cp)
		w.dupsLeft--
	case actFire:
		t := w.timers[a.timer]
		w.timers = append(w.timers[:a.timer], w.timers[a.timer+1:]...)
		w.mut(t.sw).ResyncFired(t.conn)
	case actFault:
		w.applyFault()
	}
}

func (w *World) removePending(i int) {
	w.pending = append(w.pending[:i], w.pending[i+1:]...)
}

// Quiescent reports whether no action is enabled.
func (w *World) Quiescent() bool { return len(w.enabled()) == 0 }

// Machine returns switch s's machine (read-only inspection).
func (w *World) Machine(s topo.SwitchID) *core.Machine { return w.machines[s] }

// Trace returns the recorded trace (tracing worlds only).
func (w *World) Trace() []string { return w.trace }

// hashScratch is the reusable working space of World.hash.
type hashScratch struct {
	buf    []byte
	msgs   []*pendingMsg
	timers []timer
}

var hashScratchPool = sync.Pool{New: func() any { return new(hashScratch) }}

// hash returns the canonical state digest used for search deduplication.
// In-flight messages hash as a multiset (two interleavings that produced
// the same pending messages in different orders are the same state).
// Machine encodings come from the encs cache, so a world cloned from an
// already-hashed one re-encodes only the machines it wrote.
func (w *World) hash() [32]byte {
	sc := hashScratchPool.Get().(*hashScratch)
	defer hashScratchPool.Put(sc)
	buf := sc.buf[:0]
	for s, m := range w.machines {
		if w.encs[s] == nil {
			start := len(buf)
			buf = m.AppendState(buf)
			w.encs[s] = bytes.Clone(buf[start:])
		} else {
			buf = append(buf, w.encs[s]...)
		}
	}
	for i := 0; i < w.graph.NumLinks(); i++ {
		if w.graph.LinkAt(i).Down {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	buf = sc.appendMsgMultiset(buf, w.pending)
	buf = sc.appendMsgMultiset(buf, w.held)
	ts := append(sc.timers[:0], w.timers...)
	slices.SortFunc(ts, func(a, b timer) int {
		if a.sw != b.sw {
			return cmp.Compare(a.sw, b.sw)
		}
		return cmp.Compare(a.conn, b.conn)
	})
	sc.timers = ts
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ts)))
	for _, t := range ts {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(t.sw)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(t.conn))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.dropsLeft))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.dupsLeft))
	for _, p := range w.injectPos {
		buf = binary.BigEndian.AppendUint32(buf, uint32(p))
	}
	// The fault lane is sequential, so side/crashed/crashedOnce are pure
	// functions of faultPos; hashing the position covers them. (ownHigh is
	// path-dependent but only relaxes an invariant bound — excluding it
	// from dedup at worst re-checks a state against a looser bound.)
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.faultPos))
	sc.buf = buf
	return sha256.Sum256(buf)
}

// appendMsgMultiset appends msgs to buf as an order-independent multiset
// (two interleavings that produced the same messages in different orders
// hash identically). Each message encodes as its destination, its duped
// and internal flags, and its payload encoding; the encodings are sorted
// bytewise, each written with a length prefix after their count.
func (sc *hashScratch) appendMsgMultiset(buf []byte, msgs []pendingMsg) []byte {
	ptrs := sc.msgs[:0]
	for i := range msgs {
		ptrs = append(ptrs, &msgs[i])
	}
	// Comparing the fixed-width header fields, then the payload encodings,
	// is comparing the concatenated encodings bytewise.
	slices.SortFunc(ptrs, func(a, b *pendingMsg) int {
		if a.to != b.to {
			return cmp.Compare(uint32(int32(a.to)), uint32(int32(b.to)))
		}
		if a.duped != b.duped {
			return boolCompare(a.duped, b.duped)
		}
		if a.internal != b.internal {
			return boolCompare(a.internal, b.internal)
		}
		return bytes.Compare(a.enc, b.enc)
	})
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ptrs)))
	for _, pm := range ptrs {
		buf = binary.BigEndian.AppendUint32(buf, uint32(6+len(pm.enc)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(pm.to)))
		buf = appendFlag(buf, pm.duped)
		buf = appendFlag(buf, pm.internal)
		buf = append(buf, pm.enc...)
	}
	clear(ptrs) // the pooled scratch must not keep messages alive
	sc.msgs = ptrs[:0]
	return buf
}

func appendFlag(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// boolCompare orders false before true.
func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	default:
		return 1
	}
}

// --- Host implementation ---

// FloodMC implements core.Host: one pending delivery per switch currently
// reachable from the origin (flooding cannot cross failed links).
func (h *worldHost) FloodMC(m *lsa.MC) { h.w.flood(h.id, m) }

// FloodNonMC implements core.Host.
func (h *worldHost) FloodNonMC(nm *lsa.NonMC) { h.w.flood(h.id, nm) }

func (w *World) flood(src topo.SwitchID, payload any) {
	comp := w.graph.Component(src)
	slices.Sort(comp)
	enc := encodePayload(payload)
	for _, dst := range comp {
		if dst == src {
			continue
		}
		// Copies to a dead switch are lost with it. Cross-partition copies
		// are parked until the heal: under hop-by-hop flooding the frame
		// reaches the boundary and is forwarded onward once connectivity
		// returns (see faultops.go).
		if w.crashed[dst] {
			continue
		}
		pm := pendingMsg{id: w.nextMsgID, to: dst, payload: payload, enc: enc}
		w.nextMsgID++
		if w.partitioned(src, dst) {
			w.held = append(w.held, pm)
		} else {
			w.pending = append(w.pending, pm)
		}
	}
}

// SendUnicast implements core.Host. Unreachable destinations swallow the
// message, like a fabric with no route.
func (h *worldHost) SendUnicast(to topo.SwitchID, payload any) {
	if h.w.crashed[to] {
		return
	}
	reachable := false
	for _, s := range h.w.graph.Component(h.id) {
		if s == to {
			reachable = true
			break
		}
	}
	if !reachable {
		return
	}
	pm := pendingMsg{id: h.w.nextMsgID, to: to, payload: payload, enc: encodePayload(payload)}
	h.w.nextMsgID++
	// Cross-partition unicasts park until the heal, like flooded copies.
	if h.w.partitioned(h.id, to) {
		h.w.held = append(h.w.held, pm)
	} else {
		h.w.pending = append(h.w.pending, pm)
	}
}

// HoldCompute implements core.Host: computations are atomic under
// exploration (see the package comment for why).
func (h *worldHost) HoldCompute(any) {}

// PendingMC implements core.Host: an MC LSA for conn is "queued" when an
// in-flight flooded copy is addressed to this switch.
func (h *worldHost) PendingMC(conn lsa.ConnID) bool {
	for i := range h.w.pending {
		pm := &h.w.pending[i]
		if pm.to != h.id {
			continue
		}
		if m, ok := pm.payload.(*lsa.MC); ok && m.Conn == conn {
			return true
		}
	}
	return false
}

// Neighbors implements core.Host.
func (h *worldHost) Neighbors() []topo.SwitchID { return h.w.graph.Neighbors(h.id) }

// FabricLinkChanged implements core.Host. The world's graph may be shared
// with other worlds, so the change installs a modified copy.
func (h *worldHost) FabricLinkChanged(change lsa.LinkChange) {
	g := h.w.graph.Clone()
	if err := g.SetLinkDown(change.A, change.B, change.Down); err != nil {
		if h.w.tracing {
			h.w.trace = append(h.w.trace, fmt.Sprintf("  [%d] fabric: %v", h.id, err))
		}
		return
	}
	h.w.graph = g
}

// ArmResync implements core.Host: the firing instant becomes a choice
// point.
func (h *worldHost) ArmResync(conn lsa.ConnID) {
	h.w.timers = append(h.w.timers, timer{sw: h.id, conn: conn})
}

// SelfNudge implements core.Host: a pending self-delivery, exempt from
// network faults.
func (h *worldHost) SelfNudge(conn lsa.ConnID) {
	payload := core.ResyncNudge{Conn: conn}
	h.w.pending = append(h.w.pending, pendingMsg{
		id: h.w.nextMsgID, to: h.id,
		payload: payload, enc: encodePayload(payload), internal: true,
	})
	h.w.nextMsgID++
}

// NoteInstall implements core.Host.
func (h *worldHost) NoteInstall() { h.w.installs++ }

// ForwardingChanged implements core.Host. The checker explores control-plane
// interleavings only; there is no FIB to recompile.
func (h *worldHost) ForwardingChanged(lsa.ConnID) {}

// Trace implements core.Host.
func (h *worldHost) TraceEnabled() bool { return h.w.tracing }

func (h *worldHost) Trace(kind core.TraceKind, chain core.ChainID, conn lsa.ConnID, format string, args ...any) {
	if !h.w.tracing {
		return
	}
	h.w.trace = append(h.w.trace,
		fmt.Sprintf("  [switch %d conn %d chain %s] %s: %s", h.id, conn, chain, kind, fmt.Sprintf(format, args...)))
}
