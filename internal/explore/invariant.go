package explore

import (
	"fmt"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// This file defines the checked properties.
//
// Per-state invariants (checkStep) must hold after every transition:
//
//   - Vector bounds: R ≤ E and C ≤ E at every switch. (C ≤ R is NOT an
//     invariant: an accepted proposal's stamp can cover events the local
//     switch still holds buffered out of order, so C can transiently run
//     ahead of R.)
//   - Origin authority: R[x] and E[x] at any switch never exceed R[x] at
//     switch x itself — event counters originate at x and flow outward,
//     so nobody can know of more x-events than x has issued.
//
// Quiescent invariants (checkQuiescent) must hold whenever no action is
// enabled; they mirror Domain.CheckConverged so the explorer enforces the
// same consensus definition as the timed simulator:
//
//   - Within each fabric component, every switch with state for a
//     connection agrees on the committed stamp, member list, and installed
//     topology, and the topology is a valid tree/forest over the members
//     reachable in that component.
//   - In maximum-size components the stamps have also settled: R == E == C
//     (no lost events, no lost proposal-wakeups). Minority fragments may
//     hold legitimately stale state — the paper defers partition recovery —
//     and are checked for internal agreement only.
//   - Event conservation: each switch's own event counter covers every
//     membership event the scenario injected there (nothing vanished
//     before reaching the protocol).
//
// Schedules on which the explorer chose a Drop are held to a weaker
// quiescent standard. The paper assumes reliable flooding, and the
// simulator's fabric repairs per-hop losses by retransmission; a
// permanently lost LSA is therefore outside the protocol's guarantee, and
// a switch that never hears anything revealing the gap (its R still equals
// its E) legitimately ends divergent. What gap recovery does promise —
// and what lossy schedules check — is that no switch ends silently
// wedged: any connection still gapped (R < E, buffered out-of-order
// arrivals, or a lagging commit) must have exhausted its resync round
// budget, never stalled with rounds to spare and no timer armed (a lost
// wakeup). Event conservation is checked in both modes.

// Violation is an invariant failure found during exploration.
type Violation struct {
	// Err describes the failed invariant.
	Err error
	// Schedule is the choice sequence that reaches the failure from the
	// initial world (clamped indices; see World.applyIndex).
	Schedule []int
	// Token replays this violation via `dgmccheck -replay`.
	Token string
	// Trace is the human-readable action/protocol trace of the replay.
	Trace []string
	// Quiescent reports whether the failure is a quiescent-state property
	// (as opposed to a per-step one).
	Quiescent bool
}

func (v *Violation) Error() string {
	if v == nil {
		return "<nil>"
	}
	return v.Err.Error()
}

// checkStep verifies the per-state invariants. It runs after every
// transition, so it reads the machines' stamps in place (Machine.Stamps)
// rather than through copying snapshots.
func (w *World) checkStep() error {
	for s, m := range w.machines {
		for _, conn := range m.AllConnections() {
			r, e, c, _ := m.Stamps(conn)
			if !e.Geq(r) {
				return fmt.Errorf("switch %d conn %d: R exceeds E: R=%s E=%s", s, conn, r, e)
			}
			if !e.Geq(c) {
				return fmt.Errorf("switch %d conn %d: C exceeds E: C=%s E=%s", s, conn, c, e)
			}
			for x := 0; x < w.n && x < len(r); x++ {
				own := w.ownCount(conn, x)
				if r[x] > own {
					return fmt.Errorf("switch %d conn %d: R[%d]=%d exceeds origin's own count %d",
						s, conn, x, r[x], own)
				}
				if e[x] > own {
					return fmt.Errorf("switch %d conn %d: E[%d]=%d exceeds origin's own count %d",
						s, conn, x, e[x], own)
				}
			}
		}
	}
	return nil
}

// ownCount is the origin-authoritative event count for origin x on conn:
// R[x] at switch x itself. A crash resets the origin's live counter, so
// the bound is the most events the origin EVER issued (high-water marks
// captured at crash time), not its current, possibly still-recovering
// count.
func (w *World) ownCount(conn lsa.ConnID, x int) uint32 {
	var own uint32
	if r, _, _, ok := w.machines[x].Stamps(conn); ok && x < len(r) {
		own = r[x]
	}
	if hw := w.ownHigh[conn]; hw != nil {
		own = max(own, hw[x])
	}
	return own
}

// lossyStandard reports whether this schedule's history downgrades it to
// the weakened quiescent standard. Crashes, like budgeted drops,
// legitimately lose information (frames queued at the dead switch, events
// a blank restart finds no holder for), so any schedule containing either
// is held to the lossy standard. Pure split/heal schedules lose nothing
// heal reconciliation cannot replay and keep the strict standard.
func (w *World) lossyStandard() bool {
	return w.dropsLeft < w.cfg.MaxDrops || w.crashedEver
}

// checkQuiescent verifies the consensus invariants. Call only when no
// action is enabled.
func (w *World) checkQuiescent() error {
	if w.lossyStandard() {
		return w.checkQuiescentLossy()
	}
	seen := make(map[topo.SwitchID]bool, w.n)
	var comps [][]topo.SwitchID
	maxSize := 0
	for s := 0; s < w.n; s++ {
		start := topo.SwitchID(s)
		if seen[start] {
			continue
		}
		comp := w.graph.Component(start)
		for _, c := range comp {
			seen[c] = true
		}
		comps = append(comps, comp)
		if len(comp) > maxSize {
			maxSize = len(comp)
		}
	}
	for _, comp := range comps {
		inComp := make(map[topo.SwitchID]bool, len(comp))
		for _, c := range comp {
			inComp[c] = true
		}
		if err := w.checkComponent(comp, inComp, len(comp) == maxSize); err != nil {
			return err
		}
	}
	return w.checkEventConservation()
}

// checkQuiescentLossy is the weakened quiescent check for schedules that
// permanently dropped at least one message (see the file comment): no
// switch may end silently wedged mid-recovery.
func (w *World) checkQuiescentLossy() error {
	for s, m := range w.machines {
		for _, conn := range m.AllConnections() {
			if m.Gapped(conn) && !m.ResyncGaveUp(conn) {
				snap, _ := m.Connection(conn)
				return fmt.Errorf("quiescent: switch %d conn %d wedged mid-recovery with resync rounds to spare: R=%s E=%s C=%s",
					s, conn, snap.R, snap.E, snap.C)
			}
		}
	}
	return w.checkEventConservation()
}

// checkComponent mirrors core.Domain's checkComponent: agreement among the
// switches of one fabric component, plus settled stamps and topology
// validity in strict (maximum-size) components.
func (w *World) checkComponent(comp []topo.SwitchID, inComp map[topo.SwitchID]bool, strict bool) error {
	conns := map[lsa.ConnID]bool{}
	for _, s := range comp {
		for _, id := range w.machines[s].Connections() {
			conns[id] = true
		}
	}
	for _, conn := range sortedConns(conns) {
		var ref *connView
		for _, s := range comp {
			m := w.machines[s]
			snap, ok := m.Connection(conn)
			if !ok {
				return fmt.Errorf("quiescent: switch %d has no state for conn %d", s, conn)
			}
			if strict && (!snap.R.Equal(snap.E) || !snap.R.Equal(snap.C)) {
				return fmt.Errorf("quiescent: switch %d conn %d stamps diverge: R=%s E=%s C=%s",
					s, conn, snap.R, snap.E, snap.C)
			}
			if ref == nil {
				ref = &connView{sw: s, snap: snap}
				continue
			}
			if !snap.C.Equal(ref.snap.C) {
				return fmt.Errorf("quiescent: conn %d: switch %d C=%s but switch %d C=%s",
					conn, s, snap.C, ref.sw, ref.snap.C)
			}
			if !snap.Members.Equal(ref.snap.Members) {
				return fmt.Errorf("quiescent: conn %d: member lists diverge between switches %d and %d: %v vs %v",
					conn, s, ref.sw, snap.Members, ref.snap.Members)
			}
			if (snap.Topology == nil) != (ref.snap.Topology == nil) ||
				(snap.Topology != nil && !snap.Topology.Equal(ref.snap.Topology)) {
				return fmt.Errorf("quiescent: conn %d: topologies diverge between switches %d and %d: %v vs %v",
					conn, s, ref.sw, snap.Topology, ref.snap.Topology)
			}
		}
		if strict && ref != nil && ref.snap.Topology != nil {
			local := make(mctree.Members, len(ref.snap.Members))
			for m, role := range ref.snap.Members {
				if inComp[m] {
					local[m] = role
				}
			}
			if err := ref.snap.Topology.Validate(w.graph, local); err != nil {
				return fmt.Errorf("quiescent: conn %d: converged topology invalid: %w", conn, err)
			}
		}
	}
	return nil
}

type connView struct {
	sw   topo.SwitchID
	snap core.Snapshot
}

func sortedConns(set map[lsa.ConnID]bool) []lsa.ConnID {
	out := make([]lsa.ConnID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkEventConservation verifies that every membership event the scenario
// injected is reflected in the injecting switch's own event counter (a
// lost event would leave R[x] at switch x below the number of events the
// world handed it).
func (w *World) checkEventConservation() error {
	for conn, counts := range w.injectedMembership {
		for s := 0; s < w.n; s++ {
			if counts[s] == 0 {
				continue
			}
			// A switch that crashed may legitimately have lost events it
			// originated but had not replicated before dying.
			if w.crashedOnce[s] {
				continue
			}
			snap, ok := w.machines[s].Connection(conn)
			if !ok {
				return fmt.Errorf("quiescent: conn %d: switch %d lost all state despite %d injected events",
					conn, s, counts[s])
			}
			if s < len(snap.R) && snap.R[s] < uint32(counts[s]) {
				return fmt.Errorf("quiescent: conn %d: switch %d own event count R[%d]=%d below %d injected events",
					conn, s, s, snap.R[s], counts[s])
			}
		}
	}
	return nil
}
