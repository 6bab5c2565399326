package rt

import (
	"errors"
	"sync/atomic"

	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/obs"
	"dgmc/internal/topo"
)

// This file is the node's data plane: originate (SendDataBatch) and relay
// (handleData) payload frames over the per-connection FIB compiled from the
// installed MC topologies.
//
// The steady-state forward path is allocation-free by construction (the
// root alloc gate pins it at 0 allocs/op, with the flight recorder and
// packet sampling enabled): the frame decodes into stack values, the table
// lookup is one atomic pointer load plus a map read, the relay patches
// From/hops/CRC into the received buffer in place, every counter is a plain
// atomic in a per-connection stripe, and the flight recorder writes through
// a fixed-size seqlock ring. It runs on the transport receive goroutine and
// never takes the machine lock — installs swap the table under the hot
// path, they never block it.
//
// Deliberately NOT here: duplicate suppression. Duplicates during
// reconvergence (two switches briefly installed on different trees) are a
// headline metric of this reproduction, so the data plane forwards what the
// FIB says and the sinks count what arrives; the hop budget bounds the cost
// of any transient loop.

// DefaultDataHops is the default hop budget on originated payload frames —
// comfortably above any tree path in the fabrics this repo drives, small
// enough that a reconvergence loop dies quickly.
const DefaultDataHops = 64

// DataHandler receives payloads the data plane delivers to the co-resident
// application: the connection, the originating switch, its per-source data
// sequence number, and the payload bytes (valid only for the duration of
// the call — they alias a pooled receive buffer).
type DataHandler func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte)

// ErrNotSender is returned by SendData when the local switch is not
// entitled to originate on the connection (not a sending member of a
// symmetric/asymmetric MC).
var ErrNotSender = errors.New("rt: switch may not send on this connection")

// ErrNoRoute is returned by SendData when the switch has no forwarding
// state for the connection, or no route into its MC topology.
var ErrNoRoute = errors.New("rt: no route into the MC")

// fwdStripes is the stripe count of the data plane's counter array. Power
// of two so the conn→stripe map is a mask; 64 stripes × one cache line
// keeps counter contention negligible however many connections share the
// node while letting per-connection metrics read "their" stripe directly.
const fwdStripes = 64

// forwardCounters are one stripe of the data plane's statistics: plain
// atomics so they work (and stay allocation-free) with or without a
// registry. Padded to a cache line so stripes do not false-share.
type forwardCounters struct {
	originated  atomic.Uint64
	forwarded   atomic.Uint64
	delivered   atomic.Uint64
	dropNoEntry atomic.Uint64
	dropNoRoute atomic.Uint64
	dropHops    atomic.Uint64
	dropLoop    atomic.Uint64
	_           [1]uint64 // pad to 64 bytes
}

// snapshot reads one stripe into a ForwardStats value.
func (c *forwardCounters) snapshot() ForwardStats {
	return ForwardStats{
		Originated:  c.originated.Load(),
		Forwarded:   c.forwarded.Load(),
		Delivered:   c.delivered.Load(),
		DropNoEntry: c.dropNoEntry.Load(),
		DropNoRoute: c.dropNoRoute.Load(),
		DropHops:    c.dropHops.Load(),
		DropLoop:    c.dropLoop.Load(),
	}
}

// forwardStripes is the striped counter set: connections map onto stripes
// by conn mod fwdStripes, so two connections can share a stripe (per-conn
// series are therefore stripe-accurate, exact when conns < 64) but the
// node-wide sums in ForwardStats are always exact.
type forwardStripes [fwdStripes]forwardCounters

// stripe returns the counter stripe for conn.
func (fs *forwardStripes) stripe(conn lsa.ConnID) *forwardCounters {
	return &fs[uint32(conn)&(fwdStripes-1)]
}

// ForwardStats is a snapshot of one node's data-plane counters.
type ForwardStats struct {
	// Originated counts payload frames this node sent into the network.
	Originated uint64 `json:"originated"`
	// Forwarded counts relay transmissions (one per link copy).
	Forwarded uint64 `json:"forwarded"`
	// Delivered counts payloads handed to the local application.
	Delivered uint64 `json:"delivered"`
	// DropNoEntry counts frames for connections with no FIB entry.
	DropNoEntry uint64 `json:"drop_no_entry"`
	// DropNoRoute counts frames stranded off-tree with no contact route.
	DropNoRoute uint64 `json:"drop_no_route"`
	// DropHops counts frames that exhausted their hop budget.
	DropHops uint64 `json:"drop_hops"`
	// DropLoop counts own frames that looped back.
	DropLoop uint64 `json:"drop_loop"`
}

// Drops returns the sum of all drop reasons.
func (s ForwardStats) Drops() uint64 {
	return s.DropNoEntry + s.DropNoRoute + s.DropHops + s.DropLoop
}

// add accumulates o into s.
func (s *ForwardStats) add(o ForwardStats) {
	s.Originated += o.Originated
	s.Forwarded += o.Forwarded
	s.Delivered += o.Delivered
	s.DropNoEntry += o.DropNoEntry
	s.DropNoRoute += o.DropNoRoute
	s.DropHops += o.DropHops
	s.DropLoop += o.DropLoop
}

// ForwardStats returns a snapshot of the node's data-plane counters: the
// sum over all stripes. Safe concurrent with live forwarding and FIB swaps
// (each field is an atomic load; the total is not a single atomic cut, same
// as any multi-counter snapshot).
func (n *Node) ForwardStats() ForwardStats {
	var total ForwardStats
	for i := range n.fwd {
		total.add(n.fwd[i].snapshot())
	}
	return total
}

// ConnForwardStats returns the counter stripe conn maps to. Exact for the
// connection when fewer than fwdStripes connections are live; an aggregate
// of the stripe's connections otherwise.
func (n *Node) ConnForwardStats(conn lsa.ConnID) ForwardStats {
	return n.fwd.stripe(conn).snapshot()
}

// FIB returns the node's current forwarding table (never nil after NewNode;
// read-only).
func (n *Node) FIB() *fib.Table { return n.fib.Load() }

// FIBCompiles counts table recompilations since boot.
func (n *Node) FIBCompiles() uint64 { return n.fibCompiles.Load() }

// maybeRecompileLocked recompiles the FIB if the machine call that just
// returned reported a forwarding change. Must be called with n.mu held,
// after the machine call, before releasing the lock.
func (n *Node) maybeRecompileLocked() {
	if !n.fibDirty {
		return
	}
	n.fibDirty = false
	n.recompileFIBLocked()
}

// recompileFIBLocked compiles a fresh table from the machine's forwarding
// state and swaps it in atomically. Must be called with n.mu held (or
// before the goroutine cluster starts).
func (n *Node) recompileFIBLocked() {
	b := fib.NewBuilder(n.id, n.machine.Unicast().Image())
	n.machine.ForwardingState(b.Add)
	t := b.Build()
	n.fib.Store(t)
	compiles := n.fibCompiles.Add(1)
	n.flight.Record(obs.RecFIBSwap, 0, uint32(n.id), compiles, uint64(t.Size()))
	n.registerConnSeries(t)
}

// recordData writes one data-plane record: always into the event ring, and
// into the sampled-hop ring too when the packet's sequence selects it. Both
// rings are nil-safe and allocation-free, so this inlines to two branches
// when the recorder is disabled.
func (n *Node) recordData(kind obs.RecKind, conn lsa.ConnID, src topo.SwitchID, seq uint64, from topo.SwitchID) {
	n.flight.Record(kind, uint32(conn), uint32(src), seq, uint64(from))
	if obs.Sampled(seq, n.sampleEvery) {
		n.hopRec.Record(kind, uint32(conn), uint32(src), seq, uint64(from))
	}
}

// SendData originates one payload on conn, fanning it out exactly as a
// forwarded frame would: over the tree if this switch is on it, or toward
// the contact node of a receiver-only MC. It returns the frame's data
// sequence number. It is SendDataBatch with a count of one.
func (n *Node) SendData(conn lsa.ConnID, payload []byte) (uint64, error) {
	seq, _, err := n.SendDataBatch(conn, payload, 1)
	return seq, err
}

// SendDataBatch originates count copies of payload on conn, reserving one
// contiguous block of data sequence numbers and returning its first value.
// The frame is encoded once; each subsequent packet restamps the sequence
// (and CRC) in place before fanning out, so the per-packet cost is the
// patch plus the link sends — the setup (entitlement check, FIB lookup,
// buffer rental, header+payload encode) is paid once per batch. Per-link
// send errors are counted and traced but do not fail the packet; the
// entitlement and route checks happen once up front, which is the batch's
// semantics: one claim, count packets. Like handleData it consults only the
// atomic FIB — it never takes the machine lock.
func (n *Node) SendDataBatch(conn lsa.ConnID, payload []byte, count int) (uint64, int, error) {
	if count <= 0 {
		return 0, 0, nil
	}
	select {
	case <-n.closed:
		return 0, 0, ErrClosed
	default:
	}
	e := n.fib.Load().Lookup(conn)
	if e == nil {
		return 0, 0, ErrNoRoute
	}
	if !e.CanSend {
		return 0, 0, ErrNotSender
	}
	if !e.Entered() && e.ContactNext == topo.NoSwitch {
		return 0, 0, ErrNoRoute
	}
	first := n.dataSeq.Add(uint64(count)) - uint64(count) + 1
	d := lsa.DataFrame{Conn: conn, Src: n.id, Seq: first, Hops: n.dataHops, Payload: payload}
	buf := lsa.AppendDataFrame(getBuf(64+len(payload)), &d, n.id)
	for i := 0; i < count; i++ {
		seq := first + uint64(i)
		if i > 0 {
			if err := lsa.PatchDataSeq(buf, seq); err != nil {
				putBuf(buf)
				return first, i, err
			}
		}
		if e.Entered() {
			for _, nb := range e.Neighbors {
				if err := n.tr.Send(nb, buf); err != nil {
					n.obs.sendErrs.Inc()
					n.tracef("sw%d: data to %d: %v", n.id, nb, err)
				}
			}
		} else if err := n.tr.Send(e.ContactNext, buf); err != nil {
			n.obs.sendErrs.Inc()
			n.tracef("sw%d: data to contact %d: %v", n.id, e.ContactNext, err)
		}
		n.recordData(obs.RecOriginate, conn, n.id, seq, n.id)
	}
	putBuf(buf)
	n.fwd.stripe(conn).originated.Add(uint64(count))
	return first, count, nil
}

// handleData is the steady-state forward path: deliver locally if this
// switch is a receiving member, then relay per the FIB entry — tree fan-out
// (minus the arrival link) on-tree, one contact hop off-tree. Runs on the
// transport receive goroutine; zero allocations, no locks.
//
// consumed reports that buf's ownership was transferred to the transport:
// the relay's last outgoing link takes the already-patched frame by
// SendOwned instead of copying it. The local delivery callback runs before
// the move, so d.Payload (which aliases buf) is safe for the handler's
// duration.
func (n *Node) handleData(buf []byte, f *lsa.Frame) (consumed bool) {
	var d lsa.DataFrame
	if f.Origin == n.id {
		// Our own frame came back: a transient loop while trees disagree, or
		// a stale frame from a pre-crash incarnation. Either way it stops
		// here — the origin already fanned it out once. Decode is best-effort
		// (loops are anomalies, not the steady state) so the drop lands on
		// the right stripe and the flight record carries the connection.
		conn := lsa.ConnID(0)
		if err := lsa.DecodeDataInto(&d, f); err == nil {
			conn = d.Conn
		}
		n.fwd.stripe(conn).dropLoop.Add(1)
		n.recordData(obs.RecDropLoop, conn, f.Origin, f.Seq, f.From)
		return
	}
	if err := lsa.DecodeDataInto(&d, f); err != nil {
		n.decodeErrs.Add(1)
		return
	}
	e := n.fib.Load().Lookup(d.Conn)
	if e == nil {
		n.fwd.stripe(d.Conn).dropNoEntry.Add(1)
		n.recordData(obs.RecDropNoEntry, d.Conn, d.Src, d.Seq, f.From)
		return
	}
	if e.Local {
		n.fwd.stripe(d.Conn).delivered.Add(1)
		n.recordData(obs.RecDeliver, d.Conn, d.Src, d.Seq, f.From)
		if h := n.dataHandler; h != nil {
			h(d.Conn, d.Src, d.Seq, d.Payload)
		}
	}
	if e.Entered() {
		// Leaf check first: exhausting the hop budget at a switch with
		// nowhere further to forward is normal termination, not a drop.
		from := f.From
		last := -1
		for i, nb := range e.Neighbors {
			if nb != from {
				last = i
			}
		}
		if last < 0 {
			return
		}
		if d.Hops == 0 {
			n.fwd.stripe(d.Conn).dropHops.Add(1)
			n.recordData(obs.RecDropHops, d.Conn, d.Src, d.Seq, from)
			return
		}
		if err := lsa.PatchDataForward(buf, n.id, d.Hops-1); err != nil {
			return
		}
		sent := false
		for i, nb := range e.Neighbors {
			if nb == from {
				continue
			}
			var err error
			if i == last {
				// Final link: move the patched frame instead of copying it.
				// SendOwned consumes buf on every outcome.
				err = n.tr.SendOwned(nb, buf)
			} else {
				err = n.tr.Send(nb, buf)
			}
			if err != nil {
				n.obs.sendErrs.Inc()
				n.tracef("sw%d: data relay to %d: %v", n.id, nb, err)
			} else {
				n.fwd.stripe(d.Conn).forwarded.Add(1)
				sent = true
			}
		}
		if sent {
			n.recordData(obs.RecForward, d.Conn, d.Src, d.Seq, from)
		}
		return true
	}
	if e.ContactNext != topo.NoSwitch {
		if d.Hops == 0 {
			n.fwd.stripe(d.Conn).dropHops.Add(1)
			n.recordData(obs.RecDropHops, d.Conn, d.Src, d.Seq, f.From)
			return
		}
		if err := lsa.PatchDataForward(buf, n.id, d.Hops-1); err != nil {
			return
		}
		if err := n.tr.SendOwned(e.ContactNext, buf); err != nil {
			n.obs.sendErrs.Inc()
			n.tracef("sw%d: data relay to contact %d: %v", n.id, e.ContactNext, err)
		} else {
			n.fwd.stripe(d.Conn).forwarded.Add(1)
			n.recordData(obs.RecForward, d.Conn, d.Src, d.Seq, f.From)
		}
		return true
	}
	n.fwd.stripe(d.Conn).dropNoRoute.Add(1)
	n.recordData(obs.RecDropNoRoute, d.Conn, d.Src, d.Seq, f.From)
	return false
}
