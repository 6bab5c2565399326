package rt

import (
	"fmt"
	"net"
	"sync/atomic"

	"dgmc/internal/topo"
)

// maxUDPFrame bounds a received datagram. Comfortably above
// lsa.MaxFramePayload plus the frame header would be wasteful per read;
// 64 KiB covers any UDP datagram.
const maxUDPFrame = 64 << 10

// UDPTransport is a Transport over one UDP socket with a static peer table.
// It is what cmd/dgmcd uses: one daemon, one socket, peers from the shared
// topology file. UDP gives real-world semantics — datagrams can drop under
// buffer pressure — so deployments enable the protocol's resync recovery.
type UDPTransport struct {
	conn   *net.UDPConn
	peers  map[topo.SwitchID]*net.UDPAddr
	closed atomic.Bool
}

// NewUDPTransport binds listen (e.g. "127.0.0.1:7701", or ":0" for an
// ephemeral port) and resolves the peer address table.
func NewUDPTransport(listen string, peers map[topo.SwitchID]string) (*UDPTransport, error) {
	laddr, err := net.ResolveUDPAddr("udp", listen)
	if err != nil {
		return nil, fmt.Errorf("rt: listen address %q: %w", listen, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("rt: bind %q: %w", listen, err)
	}
	t := &UDPTransport{conn: conn, peers: make(map[topo.SwitchID]*net.UDPAddr, len(peers))}
	for id, addr := range peers {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("rt: peer %d address %q: %w", id, addr, err)
		}
		t.peers[id] = ua
	}
	// Flood storms are bursty; deep socket buffers keep the loss rate down
	// to what resync can mop up quickly. Best-effort: some systems clamp.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	return t, nil
}

// LocalAddr returns the bound socket address (useful with ":0").
func (t *UDPTransport) LocalAddr() *net.UDPAddr {
	return t.conn.LocalAddr().(*net.UDPAddr)
}

// Send implements Transport.
func (t *UDPTransport) Send(to topo.SwitchID, data []byte) error {
	if t.closed.Load() {
		return ErrClosed
	}
	addr, ok := t.peers[to]
	if !ok {
		return fmt.Errorf("rt: no address for switch %d", to)
	}
	_, err := t.conn.WriteToUDP(data, addr)
	return err
}

// Recv implements Transport.
func (t *UDPTransport) Recv() ([]byte, error) {
	buf := getBuf(maxUDPFrame)[:maxUDPFrame]
	n, _, err := t.conn.ReadFromUDP(buf)
	if err != nil {
		if t.closed.Load() {
			return nil, ErrClosed
		}
		return nil, err
	}
	return buf[:n], nil
}

// SendOwned implements Transport: a socket write copies into the kernel, so
// the move is Send followed by recycling buf.
func (t *UDPTransport) SendOwned(to topo.SwitchID, buf []byte) error {
	err := t.Send(to, buf)
	putBuf(buf)
	return err
}

// RecvBatch implements Transport: one datagram per call, returned in the
// recycled slice.
func (t *UDPTransport) RecvBatch(recycle [][]byte) ([][]byte, error) {
	buf, err := t.Recv()
	if err != nil {
		return nil, err
	}
	return append(recycle[:0], buf), nil
}

// Release implements Transport; a socket keeps no in-flight count.
func (t *UDPTransport) Release(int) {}

// Close implements Transport.
func (t *UDPTransport) Close() error {
	t.closed.Store(true)
	return t.conn.Close()
}

// UDPFabric is a set of UDPTransports on loopback ephemeral ports, one per
// switch — the in-process stand-in for a real multi-daemon deployment, used
// by the UDP soak test.
type UDPFabric struct {
	trs []*UDPTransport
}

// NewUDPFabric binds n loopback sockets and cross-wires their peer tables.
func NewUDPFabric(n int) (*UDPFabric, error) {
	conns := make([]*net.UDPConn, n)
	addrs := make(map[topo.SwitchID]string, n)
	fail := func(err error) (*UDPFabric, error) {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
		return nil, err
	}
	for i := range conns {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return fail(fmt.Errorf("rt: bind loopback socket %d: %w", i, err))
		}
		conns[i] = c
		addrs[topo.SwitchID(i)] = c.LocalAddr().String()
	}
	f := &UDPFabric{trs: make([]*UDPTransport, n)}
	for i, c := range conns {
		t := &UDPTransport{conn: c, peers: make(map[topo.SwitchID]*net.UDPAddr, n)}
		for id, addr := range addrs {
			if int(id) == i {
				continue
			}
			ua, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return fail(fmt.Errorf("rt: resolve %q: %w", addr, err))
			}
			t.peers[id] = ua
		}
		_ = c.SetReadBuffer(4 << 20)
		_ = c.SetWriteBuffer(4 << 20)
		f.trs[i] = t
	}
	return f, nil
}

// Transport returns switch id's socket.
func (f *UDPFabric) Transport(id topo.SwitchID) Transport { return f.trs[id] }

// Close closes every socket.
func (f *UDPFabric) Close() error {
	var first error
	for _, t := range f.trs {
		if err := t.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
