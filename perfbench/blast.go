package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"dgmc/internal/lsa"
	"dgmc/internal/rt"
	"dgmc/internal/topo"
	"dgmc/internal/workload"
)

// blast16 parameters. The payload is the smallest size, where per-packet
// cost dominates; MaxInFlight closes the loop as the cluster throughput
// benchmark does.
const (
	blastPayload     = 64
	blastMaxInFlight = 1024
	blastWindows     = 10
	blastSetups      = 15
	// blastSampleEvery: one packet in this many carries a latency sample
	// back from each receiver.
	blastSampleEvery = 256
)

// stampSender is the workload.BatchSender the load generator drives: it
// forwards each batch to the cluster with the batch's origination time in
// the payload's first 8 bytes, and in a traced run records a span per
// call. Each source has its own payload buffer, which is safe because
// every source has exactly one sender goroutine.
type stampSender struct {
	c       *rt.Cluster
	t0      time.Time
	bufs    map[topo.SwitchID][]byte
	refused atomic.Uint64
	sent    atomic.Uint64
	spans   *recorder
	parent  atomic.Uint64 // current window span, in a traced run
}

func (s *stampSender) SendData(sw topo.SwitchID, conn lsa.ConnID, payload []byte) (uint64, error) {
	first, _, err := s.SendDataBatch(sw, conn, payload, 1)
	return first, err
}

func (s *stampSender) SendDataBatch(sw topo.SwitchID, conn lsa.ConnID, payload []byte, count int) (uint64, int, error) {
	buf := s.bufs[sw][:len(payload)]
	start := time.Now()
	binary.LittleEndian.PutUint64(buf, uint64(start.Sub(s.t0)))
	first, sent, err := s.c.SendDataBatch(sw, conn, buf, count)
	if s.spans != nil {
		p := s.parent.Load()
		s.spans.record("rt.SendDataBatch", 0, p, p, start, time.Now())
	}
	s.sent.Add(uint64(sent))
	s.refused.Add(uint64(count - sent))
	return first, sent, err
}

// deliveryLatency records how long ago the packet's stamp was taken, for one
// packet in every sampleEvery.
func deliveryLatency(lat *latencies, t0 time.Time, sampleEvery uint64) rt.ClusterDataHandler {
	return func(at topo.SwitchID, _ lsa.ConnID, _ topo.SwitchID, seq uint64, payload []byte) {
		if seq%sampleEvery != 0 || len(payload) < 8 {
			return
		}
		sent := time.Duration(binary.LittleEndian.Uint64(payload))
		lat.add(int(at), ms(time.Since(t0)-sent))
	}
}

// runBlast is the blast16 workload: closed-loop saturation of a converged
// 4×4 ChanFabric grid by workload.Blast in timed mode, two sources with one
// sender each, 64-byte payloads, at most 1024 frames in flight.
func runBlast(cfg runConfig) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	t0 := time.Now()
	lat := newLatencies(16)
	handler := deliveryLatency(lat, t0, blastSampleEvery)

	gc, setup, err := bootRepeated(cfg, blastSetups, func() (*gridCluster, error) {
		return bootGrid(false, rng, handler)
	})
	if err != nil {
		return nil, err
	}
	defer gc.c.Close()

	var spans *recorder
	if cfg.trace {
		spans = newRecorder()
	}
	res := newResult("chan", spans)
	res.metrics["setup_s"] = setup
	res.metrics["computations_per_event"] = gc.joinCost.computations / float64(gc.joins)
	res.metrics["floods_per_event"] = gc.joinCost.floods / float64(gc.joins)

	bufs := map[topo.SwitchID][]byte{}
	for _, sw := range gridSenders {
		bufs[sw] = seededPayload(rng, blastPayload)
	}
	snd := &stampSender{c: gc.c, t0: t0, bufs: bufs}

	// The untraced run measures every window; the traced run measures half
	// untraced, for obs.trace_overhead_frac, and half traced.
	plain, traced := blastWindows, 0
	if cfg.trace {
		plain, traced = 3, 3
	}
	winLen := cfg.window / time.Duration(plain+traced)

	fs0 := gc.c.ForwardStats()
	p0 := sampleProc()
	var plainRates []float64
	for i := 0; i < plain; i++ {
		rate, err := blastOnce(gc, snd, winLen, gc.fab.InFlight)
		if err != nil {
			return nil, err
		}
		plainRates = append(plainRates, rate)
	}
	p1 := sampleProc()
	plainOrig := float64(gc.c.ForwardStats().Originated - fs0.Originated)
	plainLat := lat.take()

	var tracedCPUPerPkt float64
	if cfg.trace {
		snd.spans = spans
		fsT := gc.c.ForwardStats()
		pT := sampleProc()
		var polls, blocked atomic.Uint64
		inflight := func() int64 {
			v := gc.fab.InFlight()
			polls.Add(1)
			if v > blastMaxInFlight {
				blocked.Add(1)
			}
			return v
		}
		var tracedRates, inflightSamples []float64
		for i := 0; i < traced; i++ {
			rate, err := blastOnceTraced(gc, snd, winLen, inflight, &inflightSamples)
			if err != nil {
				return nil, err
			}
			tracedRates = append(tracedRates, rate)
		}
		pE := sampleProc()
		fsE := gc.c.ForwardStats()
		d := pT.to(pE)
		orig := float64(fsE.Originated - fsT.Originated)
		sendTot := spans.total("rt.SendDataBatch")
		res.metrics["rt.send_ns_per_pkt"] = div(float64(sendTot.TotalNS), orig)
		res.metrics["rt.forwards_per_pkt"] = div(float64(fsE.Forwarded-fsT.Forwarded), orig)
		res.metrics["rt.deliveries_per_pkt"] = div(float64(fsE.Delivered-fsT.Delivered), orig)
		res.metrics["rt.drops"] = float64(fsE.Drops() - fs0.Drops())
		res.metrics["chanfabric.inflight_mean"] = mean(inflightSamples)
		res.metrics["workload.blocked_frac"] = div(float64(blocked.Load()), float64(polls.Load()))
		res.metrics["runtime.allocs_per_op"] = div(d.allocObjs, orig)
		res.metrics["runtime.gc_cpu_frac"] = d.gcFrac()
		res.metrics["runtime.cpu_util"] = d.cpuUtil(runtime.NumCPU())
		res.metrics["obs.trace_overhead_frac"] = div(median(plainRates)-median(tracedRates), median(plainRates))
		tracedCPUPerPkt = div(d.cpuNS, orig)
	}

	fsEnd := gc.c.ForwardStats()
	orig := fsEnd.Originated - fs0.Originated
	recv := uint64(len(gridMembers) - 1)
	delivered := fsEnd.Delivered - fs0.Delivered
	missing := int64(orig*recv) - int64(delivered)
	res.check(missing == 0, "blast16: %d originated × %d receivers, %d delivered", orig, recv, delivered)
	res.check(fsEnd.Drops() == fs0.Drops(), "blast16: %d forward drops", fsEnd.Drops()-fs0.Drops())
	failed := snd.refused.Load()
	if missing > 0 {
		failed += uint64(missing)
	}
	res.outcome(snd.sent.Load()+snd.refused.Load(), failed)

	res.metrics["ops_per_s"] = median(plainRates)
	res.metrics["runtime.cpu_ns_per_op"] = div(p0.to(p1).cpuNS, plainOrig)
	res.metrics["latency_p50_ms"] = median(plainLat)
	res.metrics["peak_mem_mb"] = peakMemMB()
	if cfg.trace {
		res.metrics["workload.latency_p99_ms"] = quantile(plainLat, 0.99)
		quiesce(gc.c)
		if err := blastStages(res, gc, tracedCPUPerPkt); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// blastOnce runs one timed Blast window, drains the fabric, and returns
// the window's packets per second.
func blastOnce(gc *gridCluster, snd *stampSender, window time.Duration, inflight func() int64) (float64, error) {
	r, err := workload.Blast(snd, workload.BlastConfig{
		Conn:             1,
		Sources:          gridSenders,
		SendersPerSource: 1,
		PayloadSize:      blastPayload,
		InFlight:         inflight,
		MaxInFlight:      blastMaxInFlight,
		Measure:          window,
	})
	if err != nil {
		return 0, err
	}
	if err := drainFabric(gc.fab, 10*time.Second); err != nil {
		return 0, err
	}
	return r.SendRate(), nil
}

// blastOnceTraced is blastOnce under a window span, with the fabric's
// in-flight count sampled every millisecond.
func blastOnceTraced(gc *gridCluster, snd *stampSender, window time.Duration, inflight func() int64, samples *[]float64) (float64, error) {
	id := snd.spans.id()
	snd.parent.Store(id)
	stop := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- xs
				return
			case <-tick.C:
				xs = append(xs, float64(gc.fab.InFlight()))
			}
		}
	}()
	start := time.Now()
	rate, err := blastOnce(gc, snd, window, inflight)
	close(stop)
	*samples = append(*samples, <-done...)
	snd.spans.record("workload.Blast", id, 0, id, start, time.Now())
	return rate, err
}

// drainFabric waits until no frame is queued or being handled anywhere.
func drainFabric(f *rt.ChanFabric, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.InFlight() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("fabric did not drain within %v (%d in flight)", timeout, f.InFlight())
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}
