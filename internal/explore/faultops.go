package explore

import (
	"fmt"
	"slices"
	"strings"

	"dgmc/internal/core"
	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// This file adds whole-network fault operations — partition, heal, crash,
// restart — to the schedule-exploration harness. A Scenario carries an
// ordered fault lane (Scenario.Faults); each operation becomes one enabled
// action firing at any point of the schedule relative to everything else,
// while the lane itself keeps program order. That is exactly the shape of
// the runtime harness's fault surface (rt.Cluster.Partition/Heal/KillNode/
// RestartNode), so a property verified here is a property of the same
// operations the live soaks perform.
//
// Semantics, mirroring the transport and runtime layers:
//
//   - Split: the partition is undetected (no link-state change, as with
//     rt.ChanFabric.SetPartition and faults.Injector), and cross-group
//     frames park in a held set until the heal, when they re-enter the
//     schedulable pool. The explorer floods origin-to-destination in one
//     hop, so parking is the faithful image of hop-by-hop flooding: a
//     frame blocked at the cut has reached the boundary switch, which
//     stores and forwards it onward once connectivity returns. Dropping
//     it instead would fabricate evidence-free permanent losses beyond the
//     cut — losses the real transport cannot produce and that no crossing
//     link's R-driven reconciliation can see (the far-side switch's E
//     never advances, so nothing ever asks for a replay). Frames already
//     in flight when the split fires keep their delivery actions for the
//     same reason.
//   - Heal: every up fabric link crossing the former groups reconciles in
//     both directions (core.Machine.ReconcileNeighbor), modelling the
//     hello-protocol contact when connectivity returns.
//   - Crash: the switch's volatile state is gone the moment it dies — its
//     machine is replaced by a blank one immediately, frames addressed to
//     it and its armed timers die with it. While dead it neither receives
//     frames nor accepts scenario injects.
//   - Restart: the switch comes back blank and cold-rejoins via
//     core.Machine.RequestFullResync. The rejoin exchange is ordinary
//     scheduled traffic, so the explorer also covers schedules where local
//     events race an incomplete rejoin.
//
// Soundness: a crash legitimately loses events that had not replicated
// (frames to the dead switch are dropped, and a blank restart forgets
// everything a neighbor does not hold), so any schedule containing a crash
// is held to the lossy quiescent standard — no switch may end silently
// wedged mid-recovery — and event conservation is waived for switches that
// ever crashed. Pure split/heal schedules lose nothing: cross-group frames
// are parked and released, and everything the reconciliation replays is
// additional. They therefore keep the strict standard — full convergence
// is required after every heal, in every interleaving of released frames,
// reconciliation exchanges, and fresh local events.

// FaultKind discriminates the fault-lane operations.
type FaultKind uint8

const (
	// FaultSplit partitions the network into Groups: cross-group frames
	// are silently lost until the matching FaultHeal.
	FaultSplit FaultKind = iota + 1
	// FaultHeal removes the active partition and triggers heal
	// reconciliation across every formerly-cut link.
	FaultHeal
	// FaultCrash kills Switch: volatile state, queued frames, and armed
	// timers are lost.
	FaultCrash
	// FaultRestart revives Switch blank and starts its cold rejoin.
	FaultRestart
)

func (k FaultKind) String() string {
	switch k {
	case FaultSplit:
		return "split"
	case FaultHeal:
		return "heal"
	case FaultCrash:
		return "crash"
	case FaultRestart:
		return "restart"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// FaultOp is one operation of a scenario's fault lane.
type FaultOp struct {
	Kind FaultKind
	// Groups is the partition for FaultSplit: disjoint, non-empty groups
	// covering every switch.
	Groups [][]topo.SwitchID
	// Switch is the target of FaultCrash / FaultRestart.
	Switch topo.SwitchID
}

func (op FaultOp) String() string {
	switch op.Kind {
	case FaultSplit:
		return "split " + groupsString(op.Groups)
	case FaultHeal:
		return "heal partition"
	case FaultCrash:
		return fmt.Sprintf("crash switch %d", op.Switch)
	case FaultRestart:
		return fmt.Sprintf("restart switch %d (cold rejoin)", op.Switch)
	default:
		return op.Kind.String()
	}
}

func groupsString(groups [][]topo.SwitchID) string {
	var sb strings.Builder
	for gi, grp := range groups {
		if gi > 0 {
			sb.WriteByte('|')
		}
		for i, s := range grp {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", s)
		}
	}
	return sb.String()
}

// validateFaults statically checks the fault lane by walking it in program
// order: splits and heals alternate, a split never overlaps a dead switch
// (crash recovery and partition recovery are verified separately so each
// failure stays attributable), crashes hit live switches, restarts hit dead
// ones, and the lane ends with the network whole — quiescent-state
// invariants are only meaningful once every fault has been repaired.
func validateFaults(ops []FaultOp, g *topo.Graph) error {
	n := g.NumSwitches()
	splitActive := false
	dead := map[topo.SwitchID]bool{}
	for i, op := range ops {
		switch op.Kind {
		case FaultSplit:
			if splitActive {
				return fmt.Errorf("explore: fault %d: split while a split is active", i)
			}
			if len(dead) > 0 {
				return fmt.Errorf("explore: fault %d: split while a switch is dead", i)
			}
			if len(op.Groups) < 2 {
				return fmt.Errorf("explore: fault %d: split needs at least 2 groups", i)
			}
			seen := map[topo.SwitchID]bool{}
			total := 0
			for gi, grp := range op.Groups {
				if len(grp) == 0 {
					return fmt.Errorf("explore: fault %d: empty group %d", i, gi)
				}
				for _, s := range grp {
					if s < 0 || int(s) >= n {
						return fmt.Errorf("explore: fault %d: switch %d out of range [0,%d)", i, s, n)
					}
					if seen[s] {
						return fmt.Errorf("explore: fault %d: switch %d in two groups", i, s)
					}
					seen[s] = true
					total++
				}
			}
			if total != n {
				return fmt.Errorf("explore: fault %d: groups cover %d of %d switches", i, total, n)
			}
			splitActive = true
		case FaultHeal:
			if !splitActive {
				return fmt.Errorf("explore: fault %d: heal without an active split", i)
			}
			splitActive = false
		case FaultCrash:
			if splitActive {
				return fmt.Errorf("explore: fault %d: crash during a split", i)
			}
			if op.Switch < 0 || int(op.Switch) >= n {
				return fmt.Errorf("explore: fault %d: switch %d out of range [0,%d)", i, op.Switch, n)
			}
			if dead[op.Switch] {
				return fmt.Errorf("explore: fault %d: switch %d is already dead", i, op.Switch)
			}
			dead[op.Switch] = true
		case FaultRestart:
			if !dead[op.Switch] {
				return fmt.Errorf("explore: fault %d: restart of switch %d, which is not dead", i, op.Switch)
			}
			delete(dead, op.Switch)
		default:
			return fmt.Errorf("explore: fault %d: invalid kind %d", i, op.Kind)
		}
	}
	if splitActive {
		return fmt.Errorf("explore: fault lane ends with an unhealed split")
	}
	if len(dead) > 0 {
		return fmt.Errorf("explore: fault lane ends with %d dead switch(es)", len(dead))
	}
	return nil
}

// partitioned reports whether an active split separates a and b.
func (w *World) partitioned(a, b topo.SwitchID) bool {
	return w.side != nil && w.side[a] != w.side[b]
}

// applyFault fires the next fault-lane operation.
func (w *World) applyFault() {
	op := w.scn.Faults[w.faultPos]
	w.faultPos++
	switch op.Kind {
	case FaultSplit:
		side := make([]int, w.n)
		for gi, grp := range op.Groups {
			for _, s := range grp {
				side[s] = gi
			}
		}
		w.side = side
		// Frames already in flight keep their delivery actions; sends
		// issued while the split is active park in w.held (see the file
		// comment and World.flood).
	case FaultHeal:
		side := w.side
		w.side = nil
		// Parked cross-group frames re-enter the schedulable pool and race
		// the reconciliation traffic below — the explorer decides who wins.
		w.pending = append(w.pending, w.held...)
		w.held = nil
		for _, l := range w.graph.Links() {
			if !l.Down && side[l.A] != side[l.B] {
				w.mut(l.A).ReconcileNeighbor(l.B)
				w.mut(l.B).ReconcileNeighbor(l.A)
			}
		}
	case FaultCrash:
		s := op.Switch
		// The origin-authority invariant compares against the most events
		// the origin ever issued; a crash resets the origin's live counter,
		// so record the high-water mark before the state is lost.
		// ownHigh, crashed and crashedOnce may be shared with other worlds
		// (see World), so they are replaced, not modified.
		m := w.machines[s]
		ownHigh := make(map[lsa.ConnID][]uint32, len(w.ownHigh))
		for conn, hw := range w.ownHigh {
			ownHigh[conn] = hw
		}
		for _, conn := range m.AllConnections() {
			r, _, _, _ := m.Stamps(conn)
			if int(s) >= len(r) {
				continue
			}
			hw := ownHigh[conn]
			if hw == nil {
				hw = make([]uint32, w.n)
			} else {
				hw = slices.Clone(hw)
			}
			hw[s] = max(hw[s], r[s])
			ownHigh[conn] = hw
		}
		w.ownHigh = ownHigh
		w.crashed = slices.Clone(w.crashed)
		w.crashed[s] = true
		w.crashedOnce = slices.Clone(w.crashedOnce)
		w.crashedOnce[s] = true
		w.crashedEver = true
		kept := w.pending[:0]
		for _, pm := range w.pending {
			if pm.to != s {
				kept = append(kept, pm)
			}
		}
		w.pending = kept
		kt := w.timers[:0]
		for _, t := range w.timers {
			if t.sw != s {
				kt = append(kt, t)
			}
		}
		w.timers = kt
		// Volatile state dies with the process: install the blank successor
		// machine now. Nothing can reach it until the restart.
		nm, err := core.NewMachine(core.MachineConfig{
			ID:              s,
			Graph:           w.cfg.Graph,
			Algorithm:       w.cfg.Algorithm,
			Kinds:           w.cfg.Kinds,
			Resync:          w.cfg.Resync,
			ResyncMaxRounds: w.cfg.ResyncMaxRounds,
			Mutation:        w.cfg.Mutation,
		}, &worldHost{w: w, id: s})
		if err != nil {
			panic(fmt.Sprintf("explore: blank machine for crashed switch %d: %v", s, err))
		}
		w.machines[s] = nm
		w.owned[s] = true
		w.encs[s] = nil
	case FaultRestart:
		s := op.Switch
		w.crashed = slices.Clone(w.crashed)
		w.crashed[s] = false
		w.mut(s).RequestFullResync()
	}
}
