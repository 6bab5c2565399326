package explore

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// These tests pin the state-sharing rules of World.clone: a clone shares
// machines, the graph and the bookkeeping with its source, and every write
// must leave the source exactly as it was.

// shareScenario exercises every action kind on a 4-switch ring: two joins
// and a locally detected link failure, drop and dup budgets with resync
// (so gaps arm timers), and a split/heal/crash/restart fault lane.
func shareScenario(t *testing.T) (Config, Scenario) {
	t.Helper()
	cfg := Config{Graph: ring4(t), Resync: true, ResyncMaxRounds: 2, MaxDrops: 1, MaxDups: 1}
	scn := Scenario{
		Injects: []Inject{
			{Switch: 0, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Sender | mctree.Receiver}},
			{Switch: 1, Event: core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.Receiver}},
			{Switch: 2, Event: core.LocalEvent{Kind: lsa.Link, Link: lsa.LinkChange{A: 2, B: 3, Down: true}}},
		},
		Faults: []FaultOp{
			{Kind: FaultSplit, Groups: [][]topo.SwitchID{{0, 1}, {2, 3}}},
			{Kind: FaultHeal},
			{Kind: FaultCrash, Switch: 3},
			{Kind: FaultRestart, Switch: 3},
		},
	}
	return cfg, scn
}

// worldPrint is a deep copy of everything a world's future depends on,
// taken without the encoding cache, so in-place writes to shared state
// cannot hide.
type worldPrint struct {
	Hash        [32]byte
	Machines    [][]byte
	Links       []topo.Link
	InjectPos   []int
	Membership  map[lsa.ConnID][]int
	OwnHigh     map[lsa.ConnID][]uint32
	Crashed     []bool
	CrashedOnce []bool
	Side        []int
	Pending     [][]byte
	Held        [][]byte
	Timers      []timer
}

func printMsgs(msgs []pendingMsg) [][]byte {
	var out [][]byte
	for _, pm := range msgs {
		// Both the cached encoding and a fresh one: a payload modified in
		// place after sending would make them differ.
		out = append(out, bytes.Clone(pm.enc), encodePayload(pm.payload))
	}
	return out
}

func printWorld(w *World) worldPrint {
	p := worldPrint{
		Hash:        freshHash(w),
		Links:       w.graph.Links(),
		InjectPos:   slices.Clone(w.injectPos),
		Membership:  map[lsa.ConnID][]int{},
		OwnHigh:     map[lsa.ConnID][]uint32{},
		Crashed:     slices.Clone(w.crashed),
		CrashedOnce: slices.Clone(w.crashedOnce),
		Side:        slices.Clone(w.side),
		Pending:     printMsgs(w.pending),
		Held:        printMsgs(w.held),
		Timers:      slices.Clone(w.timers),
	}
	for _, m := range w.machines {
		p.Machines = append(p.Machines, m.AppendState(nil))
	}
	for conn, counts := range w.injectedMembership {
		p.Membership[conn] = slices.Clone(counts)
	}
	for conn, hw := range w.ownHigh {
		p.OwnHigh[conn] = slices.Clone(hw)
	}
	return p
}

// freshHash hashes w with every machine encoded anew, bypassing (and
// leaving intact) the encoding cache.
func freshHash(w *World) [32]byte {
	saved := w.encs
	w.encs = make([][]byte, w.n)
	h := w.hash()
	w.encs = saved
	return h
}

// TestCloneIsolationEveryActionKind drives clones through every action
// kind — inject (membership and link event), deliver (including a link
// LSA reaching another switch's lsr.HandleLSA), drop, dup, timer fire,
// split, heal, crash, restart — and requires the source world to be
// byte-identical afterwards: same hash, same machine encodings, same
// bookkeeping.
func TestCloneIsolationEveryActionKind(t *testing.T) {
	cfg, scn := shareScenario(t)
	covered := map[string]int{}
	rng := rand.New(rand.NewSource(5))
	for walk := 0; walk < 200; walk++ {
		w, err := NewWorld(cfg, scn)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; ; step++ {
			acts := w.enabled()
			if len(acts) == 0 {
				break
			}
			if step > 500 {
				t.Fatalf("walk %d did not quiesce", walk)
			}
			a := acts[rng.Intn(len(acts))]
			kind := map[actionKind]string{
				actInject: "inject", actDeliver: "deliver", actDrop: "drop",
				actDup: "dup", actFire: "fire",
			}[a.kind]
			if a.kind == actFault {
				kind = scn.Faults[w.faultPos].Kind.String()
			}
			if a.kind == actDeliver {
				if _, ok := w.pending[a.msg].payload.(*lsa.NonMC); ok {
					kind = "deliver-link-lsa"
				}
			}
			before := printWorld(w)
			c := w.clone()
			c.apply(a)
			if after := printWorld(w); !reflect.DeepEqual(before, after) {
				t.Fatalf("walk %d step %d: %s on a clone changed its source:\nbefore %+v\nafter  %+v",
					walk, step, kind, before, after)
			}
			if c.hash() != freshHash(c) {
				t.Fatalf("walk %d step %d: cached hash of the clone differs from a fresh one after %s", walk, step, kind)
			}
			covered[kind]++
			if c.graph != w.graph {
				covered["fabric-link-changed"]++
			}
			for s := range c.machines {
				if c.machines[s].Unicast().Image() != w.machines[s].Unicast().Image() {
					covered["lsr-image-replaced"]++
				}
			}
			w = c
		}
	}
	for _, kind := range []string{
		"inject", "deliver", "deliver-link-lsa", "drop", "dup", "fire",
		"split", "heal", "crash", "restart", "fabric-link-changed", "lsr-image-replaced",
	} {
		if covered[kind] == 0 {
			t.Errorf("no %s transition exercised: %v", kind, covered)
		}
	}
	t.Logf("transitions by kind: %v", covered)
}

// TestCachedHashMatchesRebuilt: the hash of a world reached by cloning
// (with cached machine encodings carried along) equals the hash of the
// same state rebuilt from scratch by runPrefix of its schedule.
func TestCachedHashMatchesRebuilt(t *testing.T) {
	cfg, scn := shareScenario(t)
	root, err := NewWorld(cfg, scn)
	if err != nil {
		t.Fatal(err)
	}
	type node struct {
		w     *World
		sched []int
	}
	root.hash()
	queue := []node{{w: root}}
	seen := map[[32]byte]bool{}
	checked := 0
	for len(queue) > 0 && checked < 600 {
		n := queue[0]
		queue = queue[1:]
		for i, a := range n.w.enabled() {
			child := n.w.clone()
			child.apply(a)
			sched := append(slices.Clone(n.sched), i)
			rebuilt, err := runPrefix(cfg, scn, sched)
			if err != nil {
				t.Fatal(err)
			}
			h := child.hash()
			if rh := rebuilt.hash(); h != rh {
				t.Fatalf("schedule %v: cached hash %x, rebuilt %x", sched, h[:8], rh[:8])
			}
			checked++
			if !seen[h] {
				seen[h] = true
				queue = append(queue, node{w: child, sched: sched})
			}
		}
	}
}

func ring5TwoJoins(t *testing.T) (Config, Scenario) {
	t.Helper()
	g, err := topo.Ring(5, 5*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	join := core.LocalEvent{Conn: 1, Kind: lsa.Join, Role: mctree.SenderReceiver}
	return Config{Graph: g}, Scenario{Injects: []Inject{{Switch: 0, Event: join}, {Switch: 2, Event: join}}}
}

// TestExhaustiveRing5StateSpace pins the exact size of a known state
// space, so a deduplication bug (two states merged, or one state split)
// fails tier-1 rather than only the benchmark's exactness check.
func TestExhaustiveRing5StateSpace(t *testing.T) {
	cfg, scn := ring5TwoJoins(t)
	res, err := Exhaustive(cfg, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("unexpected violation: %v", res.Violation.Err)
	}
	if res.Stats.Truncated {
		t.Fatalf("search truncated: %+v", res.Stats)
	}
	if res.Stats.States != 10533 || res.Stats.Transitions != 48798 {
		t.Fatalf("ring-5 join@0,join@2: %d states, %d transitions; want 10533, 48798",
			res.Stats.States, res.Stats.Transitions)
	}
}

// TestExhaustiveVisitsIdenticalSequences: two runs expand the same states
// in the same order, and a mutation run reports the same first violation
// and token both times.
func TestExhaustiveVisitsIdenticalSequences(t *testing.T) {
	type expansion struct {
		depth int
		hash  [32]byte
	}
	run := func(cfg Config, scn Scenario) ([]expansion, *Result) {
		var seq []expansion
		opt := Options{expandHook: func(depth, _ int, h [32]byte) {
			seq = append(seq, expansion{depth, h})
		}}
		res, err := Exhaustive(cfg, scn, opt)
		if err != nil {
			t.Fatal(err)
		}
		return seq, res
	}
	cfg, scn := ring5TwoJoins(t)
	seq1, res1 := run(cfg, scn)
	seq2, res2 := run(cfg, scn)
	if len(seq1) != res1.Stats.States {
		t.Fatalf("%d expansions for %d states", len(seq1), res1.Stats.States)
	}
	if !reflect.DeepEqual(seq1, seq2) || !reflect.DeepEqual(res1.Stats, res2.Stats) {
		t.Fatalf("two runs diverged: %d vs %d expansions, %+v vs %+v",
			len(seq1), len(seq2), res1.Stats, res2.Stats)
	}

	cfg.Mutation = core.MutationAcceptStaleProposal
	_, m1 := run(cfg, scn)
	_, m2 := run(cfg, scn)
	if m1.Violation == nil || m2.Violation == nil {
		t.Fatal("accept-stale mutation not caught")
	}
	if m1.Violation.Token != m2.Violation.Token || !reflect.DeepEqual(m1.Stats, m2.Stats) {
		t.Fatalf("mutation runs diverged: %s %+v vs %s %+v",
			m1.Violation.Token, m1.Stats, m2.Violation.Token, m2.Stats)
	}
}

// TestExhaustiveStopsAtMemoryLimit: with a Go memory limit far below what
// the search needs, exhaustive search stops expanding and reports the
// truncation instead of growing without bound.
func TestExhaustiveStopsAtMemoryLimit(t *testing.T) {
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(4 << 20))
	cfg, scn := ring5TwoJoins(t)
	res, err := Exhaustive(cfg, scn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || !res.Stats.MemoryLimited {
		t.Fatalf("search under a 4 MiB limit was not cut short: %+v", res.Stats)
	}
	if res.Stats.States >= 10533 || res.Stats.States < memCheckEvery {
		t.Fatalf("memory-limited search visited %d states, want [%d, 10533)", res.Stats.States, memCheckEvery)
	}
}
