// Package rt is the live concurrent runtime for D-GMC: each switch runs as
// its own goroutine cluster (a transport receive loop, an LSA drain loop,
// an event loop, and wall-clock resync timers) around the same
// runtime-agnostic core.Machine that the discrete-event simulator drives.
// Nodes speak to each other only through a Transport carrying the wire
// frames of internal/lsa — an in-process channel fabric for tests and
// equivalence checking, or UDP sockets for real deployments (cmd/dgmcd).
//
// The protocol logic is not forked: internal/core owns Figures 4 and 5 and
// gap recovery; this package supplies the concurrency, the store-and-forward
// flooding, and the wall-clock timers the simulator models virtually.
package rt

import (
	"errors"

	"dgmc/internal/topo"
)

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("rt: transport closed")

// Transport is one switch's attachment to the fabric: a point-to-point
// datagram service to each direct neighbor. Implementations must be safe
// for concurrent use — the node's receive loop blocks in RecvBatch while
// protocol goroutines send.
//
// Ownership: Send must not retain or mutate data after it returns (callers
// reuse and patch buffers); SendOwned takes buf over on every outcome
// (queued, dropped by partition or loss, destination closed), so the caller
// must not touch it afterwards. Received frames belong to the caller. The
// sends and receives return ErrClosed (possibly wrapped) after Close, which
// must also unblock any goroutine waiting in Recv or RecvBatch.
type Transport interface {
	// Send queues a copy of one frame for delivery to the named switch.
	// Delivery is best-effort: a lossy fabric (UDP under pressure) may drop
	// frames, which is exactly what the protocol's gap recovery exists for.
	Send(to topo.SwitchID, data []byte) error
	// SendOwned is Send for a frame-pool buffer the caller hands over: the
	// relay's last outgoing link moves its already-patched frame instead of
	// copying it. An in-process fabric queues buf itself; a socket writes it
	// and recycles it.
	SendOwned(to topo.SwitchID, buf []byte) error
	// Recv blocks until a frame arrives and returns it.
	Recv() ([]byte, error)
	// RecvBatch blocks until at least one frame arrives and returns every
	// frame the transport can hand over at once (a datagram socket: one).
	// recycle is the slice the previous call returned (or nil); its backing
	// array is reused. The node's receive loop calls Release(1) as it
	// finishes each returned frame, so a fabric that counts frames in
	// flight only stops counting a frame once it has been handled.
	RecvBatch(recycle [][]byte) ([][]byte, error)
	// Release settles n frames from RecvBatch as handled.
	Release(n int)
	// Close detaches from the fabric and unblocks Recv and RecvBatch.
	Close() error
}
