package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dgmc/internal/fib"
	"dgmc/internal/lsa"
	"dgmc/internal/mctree"
	"dgmc/internal/topo"
)

// stubTransport satisfies Transport with an atomic send counter and
// receives that block until Close, so a node's goroutine cluster idles
// while tests drive handleData/SendData directly. SendOwned counts like
// Send and does not recycle the buffer, so a test may feed one frame
// through the production move path again and again.
type stubTransport struct {
	sends  atomic.Uint64
	closed chan struct{}
	once   sync.Once
}

func newStubTransport() *stubTransport {
	return &stubTransport{closed: make(chan struct{})}
}

func (s *stubTransport) Send(topo.SwitchID, []byte) error      { s.sends.Add(1); return nil }
func (s *stubTransport) SendOwned(topo.SwitchID, []byte) error { s.sends.Add(1); return nil }
func (s *stubTransport) Recv() ([]byte, error)                 { <-s.closed; return nil, ErrClosed }
func (s *stubTransport) RecvBatch([][]byte) ([][]byte, error)  { <-s.closed; return nil, ErrClosed }
func (s *stubTransport) Release(int)                           {}
func (s *stubTransport) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

const fwdConn = lsa.ConnID(1)

// fwdNode boots switch id of a 6-switch line over a stub transport and
// installs a hand-built FIB so the forward path is exercised in isolation
// from the control plane.
func fwdNode(t *testing.T, id topo.SwitchID, kind mctree.Kind, members mctree.Members, tr *mctree.Tree, dh DataHandler) (*Node, *stubTransport) {
	return fwdNodeWith(t, id, kind, members, tr, dh, nil)
}

// fwdNodeWith is fwdNode with a NodeConfig hook (recorder, sampling,
// registry) applied before boot.
func fwdNodeWith(t *testing.T, id topo.SwitchID, kind mctree.Kind, members mctree.Members, tr *mctree.Tree, dh DataHandler, mutate func(*NodeConfig)) (*Node, *stubTransport) {
	t.Helper()
	g, err := topo.Line(6, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	st := newStubTransport()
	cfg := NodeConfig{ID: id, Graph: g, DataHandler: dh}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := NewNode(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	b := fib.NewBuilder(id, g)
	b.Add(fwdConn, kind, members, tr)
	n.fib.Store(b.Build())
	return n, st
}

func fwdTree(kind mctree.Kind) *mctree.Tree {
	tr := mctree.New(kind)
	tr.AddEdge(0, 1)
	tr.AddEdge(1, 2)
	return tr
}

// dataBuf encodes one payload frame as it would arrive from switch `from`.
func dataBuf(conn lsa.ConnID, src, from topo.SwitchID, seq uint64, hops uint8, payload []byte) []byte {
	d := lsa.DataFrame{Conn: conn, Src: src, Seq: seq, Hops: hops, Payload: payload}
	return lsa.AppendDataFrame(nil, &d, from)
}

// TestHandleDataZeroAlloc pins the steady-state forward path — frame decode,
// FIB lookup, local delivery, in-place patch, relay fan-out — at zero heap
// allocations per frame. The root-level alloc gate re-checks the same budget
// from outside the package; this one runs on the real Node.
func TestHandleDataZeroAlloc(t *testing.T) {
	var delivered atomic.Uint64
	members := mctree.Members{0: mctree.SenderReceiver, 1: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, st := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric),
		func(conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			delivered.Add(uint64(len(payload)))
		})

	const hops = 8
	buf := dataBuf(fwdConn, 0, 0, 7, hops, make([]byte, 32))
	var f lsa.Frame
	moves := 0
	allocs := testing.AllocsPerRun(200, func() {
		// Each pass relays the frame, decrementing the in-place hop budget;
		// restore From and Hops so every iteration sees the same packet.
		if err := lsa.PatchDataForward(buf, 0, hops); err != nil {
			t.Fatal(err)
		}
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		if n.handleData(buf, &f) {
			moves++
		}
	})
	if allocs != 0 {
		t.Fatalf("handleData allocates %.1f times per frame, budget is 0", allocs)
	}
	if moves == 0 {
		t.Fatal("the relay never moved the frame into the transport")
	}
	s := n.ForwardStats()
	if s.Delivered == 0 || delivered.Load() == 0 {
		t.Fatal("member switch never delivered to its application")
	}
	if s.Forwarded == 0 || st.sends.Load() != s.Forwarded {
		t.Fatalf("relay accounting wrong: forwarded=%d, transport sends=%d", s.Forwarded, st.sends.Load())
	}
	if s.Drops() != 0 {
		t.Fatalf("unexpected drops: %+v", s)
	}
}

// TestHandleDataDropTaxonomy walks each drop reason through the real path.
func TestHandleDataDropTaxonomy(t *testing.T) {
	members := mctree.Members{0: mctree.SenderReceiver, 2: mctree.SenderReceiver}
	n, _ := fwdNode(t, 1, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)

	feed := func(buf []byte) {
		var f lsa.Frame
		if err := lsa.DecodeFrameInto(&f, buf); err != nil {
			t.Fatal(err)
		}
		n.handleData(buf, &f)
	}

	feed(dataBuf(fwdConn, 1, 0, 1, 8, nil)) // own frame looped back
	if s := n.ForwardStats(); s.DropLoop != 1 {
		t.Fatalf("loop drop not counted: %+v", s)
	}
	feed(dataBuf(lsa.ConnID(99), 0, 0, 1, 8, nil)) // no FIB entry
	if s := n.ForwardStats(); s.DropNoEntry != 1 {
		t.Fatalf("no-entry drop not counted: %+v", s)
	}
	feed(dataBuf(fwdConn, 0, 0, 2, 0, nil)) // hop budget exhausted mid-tree
	if s := n.ForwardStats(); s.DropHops != 1 {
		t.Fatalf("hop-budget drop not counted: %+v", s)
	}

	// Off-tree switch of a symmetric MC: no fan-out, no contact route.
	n4, _ := fwdNode(t, 4, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	buf := dataBuf(fwdConn, 0, 3, 3, 8, nil)
	var f lsa.Frame
	if err := lsa.DecodeFrameInto(&f, buf); err != nil {
		t.Fatal(err)
	}
	n4.handleData(buf, &f)
	if s := n4.ForwardStats(); s.DropNoRoute != 1 {
		t.Fatalf("no-route drop not counted: %+v", s)
	}

	// A leaf member whose only tree neighbor sent the frame terminates
	// normally — that is delivery, not a drop, even with zero hops left.
	n0, _ := fwdNode(t, 0, mctree.Symmetric, members, fwdTree(mctree.Symmetric), nil)
	buf = dataBuf(fwdConn, 2, 1, 4, 0, nil)
	if err := lsa.DecodeFrameInto(&f, buf); err != nil {
		t.Fatal(err)
	}
	n0.handleData(buf, &f)
	if s := n0.ForwardStats(); s.Delivered != 1 || s.Drops() != 0 {
		t.Fatalf("leaf termination misclassified: %+v", s)
	}
}

// TestSendDataRules checks origination policy: send entitlement per MC kind,
// contact-route origination from off-tree switches, and the closed-node path.
func TestSendDataRules(t *testing.T) {
	asym := mctree.Members{0: mctree.Sender, 2: mctree.Receiver}

	// A receiver of an asymmetric MC may not originate.
	n2, _ := fwdNode(t, 2, mctree.Asymmetric, asym, fwdTree(mctree.Asymmetric), nil)
	if _, err := n2.SendData(fwdConn, []byte("x")); err != ErrNotSender {
		t.Fatalf("receiver SendData = %v, want ErrNotSender", err)
	}
	if _, err := n2.SendData(lsa.ConnID(99), []byte("x")); err != ErrNoRoute {
		t.Fatalf("unknown conn SendData = %v, want ErrNoRoute", err)
	}

	// The registered sender fans out over the tree (one neighbor at a leaf).
	n0, st0 := fwdNode(t, 0, mctree.Asymmetric, asym, fwdTree(mctree.Asymmetric), nil)
	seq1, err := n0.SendData(fwdConn, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := n0.SendData(fwdConn, []byte("world"))
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq1 {
		t.Fatalf("data seq not increasing: %d then %d", seq1, seq2)
	}
	if st0.sends.Load() != 2 {
		t.Fatalf("leaf origination sent %d frames, want 2", st0.sends.Load())
	}
	if s := n0.ForwardStats(); s.Originated != 2 {
		t.Fatalf("originated = %d, want 2", s.Originated)
	}

	// An off-tree switch of a receiver-only MC originates toward its contact.
	ro := mctree.Members{0: mctree.Receiver, 2: mctree.Receiver}
	n5, st5 := fwdNode(t, 5, mctree.ReceiverOnly, ro, fwdTree(mctree.ReceiverOnly), nil)
	if _, err := n5.SendData(fwdConn, []byte("via contact")); err != nil {
		t.Fatal(err)
	}
	if st5.sends.Load() != 1 {
		t.Fatalf("contact origination sent %d frames, want 1", st5.sends.Load())
	}

	n5.Close()
	if _, err := n5.SendData(fwdConn, []byte("late")); err != ErrClosed {
		t.Fatalf("SendData after Close = %v, want ErrClosed", err)
	}
}

// TestFIBTracksControlPlane runs a real 3-switch cluster and requires the
// atomic tables to follow joins and leaves: entries appear on install,
// update on membership change, and the data path delivers end to end.
func TestFIBTracksControlPlane(t *testing.T) {
	g, err := topo.Line(3, 10*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	type rx struct {
		at, src topo.SwitchID
		payload string
	}
	var mu sync.Mutex
	var got []rx
	c, err := NewCluster(ClusterConfig{
		Graph: g, ResyncTimeout: resyncFast,
		DataHandler: func(at topo.SwitchID, conn lsa.ConnID, src topo.SwitchID, seq uint64, payload []byte) {
			mu.Lock()
			got = append(got, rx{at, src, string(payload)})
			mu.Unlock()
		},
	}, NewChanFabric(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	conn := lsa.ConnID(1)
	for _, sw := range []topo.SwitchID{0, 2} {
		if err := c.Join(sw, conn, mctree.SenderReceiver); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		if n.FIB().Lookup(conn) == nil {
			t.Fatalf("switch %d has no FIB entry after install", n.ID())
		}
		if n.FIBCompiles() == 0 {
			t.Fatalf("switch %d never recompiled its FIB", n.ID())
		}
	}

	if _, err := c.SendData(0, conn, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	if err := c.Settle(50*time.Millisecond, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := len(got)
	ok := n == 1 && got[0] == rx{2, 0, "ping"}
	mu.Unlock()
	if !ok {
		t.Fatalf("delivery = %v, want exactly one at switch 2 from 0", got)
	}

	// After the only other member leaves, the sender's table must refuse
	// origination into the now-memberless group.
	if err := c.Leave(2, conn); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	e := c.Node(0).FIB().Lookup(conn)
	if e == nil || len(e.Neighbors) != 0 {
		t.Fatalf("sender entry after leave = %+v, want memberless self-entry", e)
	}
}
