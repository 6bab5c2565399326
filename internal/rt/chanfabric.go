package rt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// ChanFabric is an in-process Transport fabric: one unbounded queue per
// switch, shared-memory delivery. It is the loss-free, reorder-free fabric
// used by the live test harness and the sim-vs-live equivalence test.
//
// Queues are unbounded on purpose: a flood storm makes every node send to
// every neighbor while holding its machine lock, and a bounded channel
// there is a recipe for distributed deadlock. Memory is bounded in practice
// by the protocol's own quiescence.
//
// The fabric also models the fault surface the robustness harness needs:
// Kill/Reset crash and restart one switch's attachment (in-flight frames to
// a killed switch are dropped, like packets to a dead host), and
// SetPartition atomically cuts every path between switch groups — silently,
// the way an undetected split behaves, so senders see success, not errors.
type ChanFabric struct {
	queues []atomic.Pointer[frameQueue]
	// inflight counts frames enqueued but not yet handed to a receiver,
	// letting the harness distinguish "quiescent" from "packets still in
	// flight". Every path that discards queued frames (Kill, Reset, Close)
	// settles the count through frameQueue.close's drain tally.
	inflight atomic.Int64
	// groups holds the active partition as a switch→group map (nil when the
	// fabric is whole). Cross-group sends are silently dropped.
	groups atomic.Pointer[map[topo.SwitchID]int]
	// loss, when set, drops payload (FrameData) frames at random. Control
	// frames are never dropped: the loss knob stresses the data plane's
	// delivery ratio, not the control plane's loss recovery — that has its
	// own faults (Kill, Partition).
	loss atomic.Pointer[lossCfg]
	// lost counts frames the loss knob discarded.
	lost atomic.Uint64
}

// lossCfg is one SetLoss configuration: a fixed drop threshold and the hash
// seed. The drop verdict for a frame is a pure function of (seed, frame
// identity, destination) — no shared counter — so a seeded soak produces
// the same loss set on every run no matter how many sender goroutines race
// or how the scheduler interleaves them.
type lossCfg struct {
	thresh uint64 // drop when the identity hash < thresh
	seed   uint64
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed 64-bit hash
// step used to turn frame identities into drop verdicts.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewChanFabric builds a fabric for switches 0..n-1.
func NewChanFabric(n int) *ChanFabric {
	f := &ChanFabric{queues: make([]atomic.Pointer[frameQueue], n)}
	for i := range f.queues {
		f.queues[i].Store(newFrameQueue())
	}
	return f
}

// Transport returns switch id's attachment to the fabric.
func (f *ChanFabric) Transport(id topo.SwitchID) Transport {
	return &chanPort{fabric: f, id: id}
}

// InFlight returns the number of frames sent but not yet received.
func (f *ChanFabric) InFlight() int64 { return f.inflight.Load() }

// Kill crashes switch id's attachment: its queue is closed (the node's
// receive loop unblocks with ErrClosed, later sends to it fail) and every
// frame still queued for it is dropped, exactly as datagrams to a dead host
// would be. Reset revives the attachment.
func (f *ChanFabric) Kill(id topo.SwitchID) error {
	if int(id) < 0 || int(id) >= len(f.queues) {
		return fmt.Errorf("rt: kill of unknown switch %d", id)
	}
	f.inflight.Add(-int64(f.queues[id].Load().close()))
	return nil
}

// Reset installs a fresh, empty queue for switch id — the transport half of
// a restart. Frames sent to id during its dead window stay lost.
func (f *ChanFabric) Reset(id topo.SwitchID) error {
	if int(id) < 0 || int(id) >= len(f.queues) {
		return fmt.Errorf("rt: reset of unknown switch %d", id)
	}
	old := f.queues[id].Swap(newFrameQueue())
	// A sender racing the swap may have pushed onto the dying queue after
	// Kill's drain; account for anything still there.
	f.inflight.Add(-int64(old.close()))
	return nil
}

// SetPartition cuts the fabric into groups: every send between switches in
// different groups is silently dropped (the sender sees success — an
// undetected split, not a link-down event). Switches absent from all groups
// are unconstrained. ClearPartition restores full connectivity.
func (f *ChanFabric) SetPartition(groups [][]topo.SwitchID) {
	m := make(map[topo.SwitchID]int)
	for i, g := range groups {
		for _, s := range g {
			m[s] = i
		}
	}
	f.groups.Store(&m)
}

// ClearPartition restores full connectivity.
func (f *ChanFabric) ClearPartition() {
	f.groups.Store(nil)
}

// SetLoss makes the fabric drop each payload (FrameData) frame with
// probability prob, using a deterministic hash of the frame's identity
// seeded by seed. prob ≤ 0 disables loss. Control frames are never
// dropped.
func (f *ChanFabric) SetLoss(prob float64, seed int64) {
	if prob <= 0 {
		f.loss.Store(nil)
		return
	}
	if prob > 1 {
		prob = 1
	}
	f.loss.Store(&lossCfg{
		thresh: uint64(prob * float64(math.MaxUint64)),
		seed:   uint64(seed),
	})
}

// Lost returns the number of frames discarded by the loss knob.
func (f *ChanFabric) Lost() uint64 { return f.lost.Load() }

// dropData reports whether the loss knob claims this frame on the link to
// `to`. Only payload frames are eligible. The verdict hashes the frame's
// wire identity — origin and data sequence, plus the link-level from/to
// pair — so each link's copy of a packet gets an independent coin flip,
// and the full loss set is a pure function of the seed: reproducible
// across runs however many concurrent senders the load generator races,
// where the old global-counter PRNG made drops scheduler-dependent.
func (f *ChanFabric) dropData(data []byte, to topo.SwitchID) bool {
	lc := f.loss.Load()
	if lc == nil {
		return false
	}
	kind, origin, from, seq, ok := lsa.PeekFrameMeta(data)
	if !ok || kind != lsa.FrameData {
		return false
	}
	h := mix64(lc.seed ^ uint64(uint32(origin)))
	h = mix64(h ^ seq)
	h = mix64(h ^ uint64(uint32(from))<<32 ^ uint64(uint32(to)))
	if h >= lc.thresh {
		return false
	}
	f.lost.Add(1)
	return true
}

// blocked reports whether the active partition separates from and to.
func (f *ChanFabric) blocked(from, to topo.SwitchID) bool {
	gp := f.groups.Load()
	if gp == nil {
		return false
	}
	m := *gp
	gf, okf := m[from]
	gt, okt := m[to]
	return okf && okt && gf != gt
}

// Close closes every queue, draining whatever is still queued so pooled
// frame buffers return to their pool and the in-flight count settles back
// to zero — a partly-shut fabric must not poison a later quiescence check.
func (f *ChanFabric) Close() error {
	for i := range f.queues {
		f.inflight.Add(-int64(f.queues[i].Load().close()))
	}
	return nil
}

// chanPort is one switch's view of a ChanFabric.
type chanPort struct {
	fabric *ChanFabric
	id     topo.SwitchID
	// pending stashes the tail of a popAll batch between single-frame Recv
	// calls (the batched path, RecvBatch, hands the whole batch to the
	// caller instead). Recv is single-consumer, but Close must be able to
	// drain a stashed batch whose frames still count as in flight — hence
	// the mutex.
	mu      sync.Mutex
	pending [][]byte
	next    int
}

func (p *chanPort) Send(to topo.SwitchID, data []byte) error {
	if int(to) < 0 || int(to) >= len(p.fabric.queues) {
		return fmt.Errorf("rt: send to unknown switch %d", to)
	}
	if p.fabric.blocked(p.id, to) {
		return nil // partitioned: the frame vanishes, undetected
	}
	if p.fabric.dropData(data, to) {
		return nil // lossy fabric ate the payload; the sender never knows
	}
	// Copy: the wire would; and the caller is free to patch its buffer for
	// the next neighbor while this copy sits queued. The copy comes from the
	// frame pool — outside the queue lock, so the critical section stays one
	// append — and goes back once the receiving node has handled it.
	buf := append(getBuf(len(data)), data...)
	if !p.fabric.queues[to].Load().push(buf) {
		putBuf(buf)
		return ErrClosed
	}
	p.fabric.inflight.Add(1)
	return nil
}

// SendOwned implements the ownership-transfer send: buf moves into the
// destination queue as-is — no copy, no pool round-trip. Every non-queued
// outcome (unknown switch, partition, loss, closed destination) recycles
// buf right here, upholding the callee-always-consumes contract.
func (p *chanPort) SendOwned(to topo.SwitchID, buf []byte) error {
	if int(to) < 0 || int(to) >= len(p.fabric.queues) {
		putBuf(buf)
		return fmt.Errorf("rt: send to unknown switch %d", to)
	}
	if p.fabric.blocked(p.id, to) || p.fabric.dropData(buf, to) {
		putBuf(buf)
		return nil // vanished in the fabric; the sender never knows
	}
	if !p.fabric.queues[to].Load().push(buf) {
		putBuf(buf)
		return ErrClosed
	}
	p.fabric.inflight.Add(1)
	return nil
}

func (p *chanPort) Recv() ([]byte, error) {
	for {
		p.mu.Lock()
		if p.next < len(p.pending) {
			buf := p.pending[p.next]
			p.pending[p.next] = nil
			p.next++
			p.mu.Unlock()
			p.fabric.inflight.Add(-1)
			return buf, nil
		}
		recycle := p.pending[:0]
		p.pending, p.next = nil, 0
		p.mu.Unlock()
		batch, ok := p.fabric.queues[p.id].Load().popAll(recycle)
		if !ok {
			// Closed; a batch stashed concurrently with the close would hold
			// in-flight frames forever, so sweep it on the way out.
			p.drainPending()
			return nil, ErrClosed
		}
		p.mu.Lock()
		p.pending, p.next = batch, 0
		p.mu.Unlock()
	}
}

// RecvBatch drains the port's entire backlog in one blocking call — one
// queue-lock acquisition per burst instead of per frame. recycle must be
// the slice returned by the previous call (or nil); its backing array goes
// back to the queue for the producers' next batch, while the frames
// themselves are the caller's to putBuf once handled. The frames stay in
// the fabric's in-flight count until the consumer settles them with
// Release — InFlight()==0 must keep meaning "nothing queued anywhere and
// nothing mid-handling", exactly as with Recv.
func (p *chanPort) RecvBatch(recycle [][]byte) ([][]byte, error) {
	batch, ok := p.fabric.queues[p.id].Load().popAll(recycle)
	if !ok {
		return nil, ErrClosed
	}
	return batch, nil
}

// Release settles n batch-received frames as handled (see RecvBatch).
func (p *chanPort) Release(n int) {
	p.fabric.inflight.Add(-int64(n))
}

func (p *chanPort) Close() error {
	f := p.fabric
	f.inflight.Add(-int64(f.queues[p.id].Load().close()))
	p.drainPending()
	return nil
}

// drainPending discards a batch stashed between Recv calls, returning its
// buffers to the pool and balancing the in-flight count.
func (p *chanPort) drainPending() {
	p.mu.Lock()
	for ; p.next < len(p.pending); p.next++ {
		putBuf(p.pending[p.next])
		p.pending[p.next] = nil
		p.fabric.inflight.Add(-1)
	}
	p.pending, p.next = nil, 0
	p.mu.Unlock()
}

// frameQueue is an unbounded MPSC FIFO of frames with a blocking batch
// pop. Producers append to back under the lock; the consumer takes the
// whole backlog in one popAll and hands its previous batch's array back,
// so the two arrays ping-pong between the sides: a balanced workload runs
// at one lock acquisition per burst with zero steady-state allocation.
// This replaced a head-shift queue (items = items[1:]) that kept every
// popped frame reachable through the backing array and re-copied the tail
// on append once capacity ran out — the hottest path in the saturation
// profile.
type frameQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	back    [][]byte
	waiters int // consumers parked in popAll; push only signals when > 0
	closed  bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *frameQueue) push(buf []byte) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.back = append(q.back, buf)
	if q.waiters > 0 {
		q.cond.Signal()
	}
	q.mu.Unlock()
	return true
}

// popAll blocks until the queue has frames (or closes), then takes the
// entire backlog. recycle is the batch slice returned by the previous
// popAll: its entries are cleared — no frame stays reachable beyond the
// batch after it — and its backing array becomes the producers' next back
// array.
func (q *frameQueue) popAll(recycle [][]byte) ([][]byte, bool) {
	clear(recycle)
	q.mu.Lock()
	for len(q.back) == 0 && !q.closed {
		q.waiters++
		q.cond.Wait()
		q.waiters--
	}
	batch := q.back
	if len(batch) == 0 {
		q.mu.Unlock()
		return nil, false
	}
	q.back = recycle[:0]
	q.mu.Unlock()
	return batch, true
}

// close drains and closes the queue, waking blocked consumers, and returns
// how many queued frames it discarded so the fabric can settle its
// in-flight accounting. Idempotent; every discarded buffer returns to the
// frame pool.
func (q *frameQueue) close() int {
	q.mu.Lock()
	q.closed = true
	n := len(q.back)
	for i, buf := range q.back {
		putBuf(buf)
		q.back[i] = nil
	}
	q.back = q.back[:0]
	q.cond.Broadcast()
	q.mu.Unlock()
	return n
}
