package workload

import (
	"errors"
	"sync"
	"testing"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// fakeBatchSender records every SendDataBatch call. It accepts at most
// limit packets of a call (all when limit is 0) and refuses the rest with an
// error. Accepted packets take contiguous sequence numbers.
type fakeBatchSender struct {
	limit int

	mu       sync.Mutex
	calls    []int // count of each call, in order
	seq      uint64
	accepted []PacketID
}

func (f *fakeBatchSender) SendDataBatch(sw topo.SwitchID, _ lsa.ConnID, _ []byte, count int) (uint64, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, count)
	n := count
	if f.limit > 0 && n > f.limit {
		n = f.limit
	}
	first := f.seq + 1
	f.seq += uint64(n)
	for i := 0; i < n; i++ {
		f.accepted = append(f.accepted, PacketID{Src: sw, Seq: first + uint64(i)})
	}
	if n < count {
		return first, n, errors.New("partly refused")
	}
	return first, n, nil
}

var blastReceivers = []topo.SwitchID{7, 8}

// checkLedger requires the ledger to hold exactly the accepted packets, each
// expecting blastReceivers: delivering each once to every receiver must
// leave nothing missing and no stray.
func checkLedger(t *testing.T, led *Ledger, accepted []PacketID, refused int) {
	t.Helper()
	for _, id := range accepted {
		for _, sw := range blastReceivers {
			led.RecordRecv(sw, id)
		}
	}
	want := Summary{
		Packets:   len(accepted),
		Refused:   refused,
		Expected:  len(accepted) * len(blastReceivers),
		Delivered: len(accepted) * len(blastReceivers),
	}
	if got := led.Summary(); got != want {
		t.Fatalf("ledger summary = %+v, want %+v", got, want)
	}
}

// runBudget blasts a 100-packet budget from one source in batches of 32
// through s, with a ledger, and requires the claims 32, 32, 32 and the
// final partial 4.
func runBudget(t *testing.T, s *fakeBatchSender) (BlastResult, *Ledger) {
	t.Helper()
	led := NewLedger()
	res, err := Blast(s, BlastConfig{
		Conn:    1,
		Sources: []topo.SwitchID{3},
		Batch:   32,
		Packets: 100,
		Ledger:  led,
		Expect:  func(topo.SwitchID) []topo.SwitchID { return blastReceivers },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{32, 32, 32, 4}
	if len(s.calls) != len(want) {
		t.Fatalf("batch calls = %v, want %v", s.calls, want)
	}
	for i := range want {
		if s.calls[i] != want[i] {
			t.Fatalf("batch calls = %v, want %v", s.calls, want)
		}
	}
	return res, led
}

// TestBlastBudgetPartialFinalBatch: with Packets not a multiple of Batch,
// the final partial claim is sent too, and the ledger records every packet.
func TestBlastBudgetPartialFinalBatch(t *testing.T) {
	s := &fakeBatchSender{}
	res, led := runBudget(t, s)
	if res.Sent != 100 || res.Refused != 0 || len(res.PerSource) != 1 || res.PerSource[0] != 100 {
		t.Fatalf("result = %+v, want 100 sent, none refused", res)
	}
	checkLedger(t, led, s.accepted, 0)
}

// TestBlastRefusedAccounting: a sender that accepts only 20 packets of each
// batch leaves the rest of every claim refused, in the result and in the
// ledger alike.
func TestBlastRefusedAccounting(t *testing.T) {
	s := &fakeBatchSender{limit: 20}
	res, led := runBudget(t, s)
	if res.Sent != 64 || res.Refused != 36 || res.PerSource[0] != 64 || len(s.accepted) != 64 {
		t.Fatalf("result = %+v with %d accepted, want 20+20+20+4 = 64 sent and 36 refused",
			res, len(s.accepted))
	}
	checkLedger(t, led, s.accepted, 36)
}
