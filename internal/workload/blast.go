// Blast: the saturating data-plane load generator. Where Pump paces a
// modest audited stream (hundreds of packets, one sender), Blast exists to
// find the fabric's ceiling: many goroutines per source originating batched
// payloads as fast as the runtime accepts them, with per-source and
// cluster-wide packets/sec accounting. It records into the same Ledger as
// Pump, so the exactly-once audit still composes at small scale (the race
// smoke), while full-rate runs skip the ledger entirely and read only
// atomic counters.

package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/topo"
)

// BatchSender is what Blast drives: SendDataBatch originates count copies
// of payload on conn at switch sw in one call, amortizing the per-send
// setup (FIB lookup, frame encode, buffer rental) across the batch. It
// returns the first data sequence of the contiguous range it reserved and
// how many packets were actually sent. rt.Cluster satisfies it.
type BatchSender interface {
	SendDataBatch(sw topo.SwitchID, conn lsa.ConnID, payload []byte, count int) (firstSeq uint64, sent int, err error)
}

// BlastStats is a cluster-wide data-plane sample Blast reads at the measure
// window's edges to convert counter deltas into rates. The caller maps it
// from whatever it sums (e.g. rt.Cluster.ForwardStats).
type BlastStats struct {
	Delivered uint64
	Forwarded uint64
}

// BlastConfig parameterizes one load-generation run. Two modes:
//
//   - Budget mode (Packets > 0): senders burn through a global packet
//     budget as fast as they can, Drain is awaited, and the whole run is
//     one measured window.
//   - Timed mode (Packets == 0): senders run flat out for Warmup (excluded
//     from the figures, letting pools and schedulers reach steady state)
//     and then Measure, which is the reported window.
type BlastConfig struct {
	// Conn is the connection to blast.
	Conn lsa.ConnID
	// Sources are the originating switches. Required.
	Sources []topo.SwitchID
	// SendersPerSource is the number of concurrent sender goroutines per
	// source switch (default 1).
	SendersPerSource int
	// PayloadSize is the app-payload size in bytes (default 64).
	PayloadSize int
	// Batch is the number of packets per SendDataBatch call (default 32).
	Batch int
	// Packets, when positive, selects budget mode: the total packet count
	// split across all senders.
	Packets int
	// Warmup and Measure are the timed-mode windows (defaults 100ms / 1s).
	Warmup, Measure time.Duration
	// Ledger, when set, records every accepted send (with Expect's receiver
	// set) and every refusal — the exactly-once audit. At saturation the
	// ledger's lock dominates, so full-rate throughput runs leave it nil.
	Ledger *Ledger
	// Expect mirrors TrafficConfig.Expect; only consulted with a Ledger.
	Expect func(src topo.SwitchID) []topo.SwitchID
	// Drain, when set, runs after budget-mode sends complete and before the
	// clock stops — e.g. wait for the fabric's in-flight count to reach
	// zero, so DeliveredPerSec counts every packet of the budget.
	Drain func() error
	// InFlight and MaxInFlight, when set, close the loop: a sender about to
	// claim another batch first yields until the fabric's in-flight count
	// drops below the bound. Open-loop blasting of an unbounded fabric just
	// measures how fast queues can balloon — memory grows without bound,
	// every buffer goes cache-cold, and the receive side starves (fatally so
	// on a single-core host, where senders and receivers timeslice one CPU).
	// Bounding the outstanding work keeps the pipeline full but the working
	// set hot, so the figure is the fabric's sustainable rate.
	InFlight    func() int64
	MaxInFlight int64
	// Stats, when set, is sampled at the measured window's edges; the delta
	// becomes the cluster-wide delivered/forwarded rates.
	Stats func() BlastStats
}

// BlastResult reports one run.
type BlastResult struct {
	// Sent counts packets accepted by the runtime inside the measured
	// window; Refused counts sends it rejected.
	Sent, Refused uint64
	// Elapsed is the measured window's wall-clock length.
	Elapsed time.Duration
	// PerSource is each source switch's accepted-send count within the
	// window, index-aligned with BlastConfig.Sources.
	PerSource []uint64
	// Delivered and Forwarded are the Stats deltas over the window (zero
	// without a Stats hook).
	Delivered, Forwarded uint64
}

// SendRate returns accepted sends per second.
func (r BlastResult) SendRate() float64 { return rate(r.Sent, r.Elapsed) }

// DeliveredRate returns cluster-wide deliveries per second.
func (r BlastResult) DeliveredRate() float64 { return rate(r.Delivered, r.Elapsed) }

// ForwardedRate returns cluster-wide link-copy forwards per second.
func (r BlastResult) ForwardedRate() float64 { return rate(r.Forwarded, r.Elapsed) }

func rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// blast run phases, advanced by the window timer (timed mode only).
const (
	phaseWarmup = iota
	phaseMeasure
	phaseDone
)

// Blast runs the load generator to completion and returns the measured
// window's figures. Send errors count as refused, exactly as in Pump; they
// do not abort the run (a source can transiently lose its entitlement
// mid-churn and regain it).
func Blast(s BatchSender, cfg BlastConfig) (BlastResult, error) {
	if len(cfg.Sources) == 0 {
		return BlastResult{}, fmt.Errorf("workload: blast needs sources")
	}
	if cfg.SendersPerSource <= 0 {
		cfg.SendersPerSource = 1
	}
	if cfg.PayloadSize <= 0 {
		cfg.PayloadSize = 64
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 100 * time.Millisecond
	}
	if cfg.Measure <= 0 {
		cfg.Measure = time.Second
	}

	payload := make([]byte, cfg.PayloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	var (
		phase    atomic.Int32
		budget   atomic.Int64 // budget mode: packets remaining to claim
		sent     atomic.Uint64
		refused  atomic.Uint64
		perSrc   = make([]atomic.Uint64, len(cfg.Sources))
		wg       sync.WaitGroup
		timedRun = cfg.Packets <= 0
	)
	if !timedRun {
		budget.Store(int64(cfg.Packets))
		phase.Store(phaseMeasure) // the whole budget run is measured
	}

	// record books one accepted batch: the counters always, the ledger (and
	// its expectations) only when auditing.
	record := func(srcIdx int, firstSeq uint64, n int) {
		if n <= 0 {
			return
		}
		if phase.Load() == phaseMeasure {
			sent.Add(uint64(n))
			perSrc[srcIdx].Add(uint64(n))
		}
		if cfg.Ledger != nil {
			src := cfg.Sources[srcIdx]
			var want []topo.SwitchID
			if cfg.Expect != nil {
				want = cfg.Expect(src)
			}
			for i := 0; i < n; i++ {
				cfg.Ledger.RecordSend(PacketID{Src: src, Seq: firstSeq + uint64(i)}, want)
			}
		}
	}
	refuse := func(n int) {
		if phase.Load() == phaseMeasure {
			refused.Add(uint64(n))
		}
		if cfg.Ledger != nil {
			for i := 0; i < n; i++ {
				cfg.Ledger.RecordRefused()
			}
		}
	}

	sender := func(srcIdx int) {
		defer wg.Done()
		src := cfg.Sources[srcIdx]
		for phase.Load() != phaseDone {
			if cfg.InFlight != nil {
				for cfg.InFlight() > cfg.MaxInFlight && phase.Load() != phaseDone {
					runtime.Gosched()
				}
			}
			n := cfg.Batch
			if !timedRun {
				claim := budget.Add(-int64(n))
				if claim < 0 {
					// Partial (or empty) final claim: hand back the overdraw.
					n += int(claim)
					if n <= 0 {
						return
					}
				}
			}
			// The error only explains a refusal, which got < n reports.
			first, got, _ := s.SendDataBatch(src, cfg.Conn, payload, n)
			record(srcIdx, first, got)
			if got < n {
				// Refused packets still count against the budget (they were
				// claimed), matching Pump's refused accounting.
				refuse(n - got)
			}
		}
	}

	var startStats BlastStats
	var elapsed time.Duration
	start := time.Now()
	if timedRun {
		// Senders warm up first; the window timer flips them into the
		// measured phase and samples the cluster counters at both edges.
		for i := range cfg.Sources {
			for g := 0; g < cfg.SendersPerSource; g++ {
				wg.Add(1)
				go sender(i)
			}
		}
		time.Sleep(cfg.Warmup)
		if cfg.Stats != nil {
			startStats = cfg.Stats()
		}
		start = time.Now()
		phase.Store(phaseMeasure)
		time.Sleep(cfg.Measure)
		phase.Store(phaseDone)
		elapsed = time.Since(start)
	} else {
		if cfg.Stats != nil {
			startStats = cfg.Stats()
		}
		start = time.Now()
		for i := range cfg.Sources {
			for g := 0; g < cfg.SendersPerSource; g++ {
				wg.Add(1)
				go sender(i)
			}
		}
	}
	wg.Wait()
	if !timedRun {
		if cfg.Drain != nil {
			if err := cfg.Drain(); err != nil {
				return BlastResult{}, fmt.Errorf("workload: blast drain: %w", err)
			}
		}
		elapsed = time.Since(start)
	}
	res := BlastResult{
		Sent:      sent.Load(),
		Refused:   refused.Load(),
		Elapsed:   elapsed,
		PerSource: make([]uint64, len(cfg.Sources)),
	}
	for i := range perSrc {
		res.PerSource[i] = perSrc[i].Load()
	}
	if cfg.Stats != nil {
		end := cfg.Stats()
		res.Delivered = end.Delivered - startStats.Delivered
		res.Forwarded = end.Forwarded - startStats.Forwarded
	}
	return res, nil
}
