package main

import (
	"context"
	"fmt"
	"time"

	"tdnuca/internal/amath"
	"tdnuca/internal/arch"
	"tdnuca/internal/cache"
	"tdnuca/internal/core"
	"tdnuca/internal/machine"
	"tdnuca/internal/noc"
	"tdnuca/internal/policy"
	"tdnuca/internal/serve"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
	"tdnuca/internal/vm"
)

// Layer probes time one public function of one layer on fixed inputs:
// a fixed-size loop, repeated in probeBatches batches, reporting the
// median nanoseconds per call. Inputs are drawn from the workload seed.
// Together they take about 5 s on the 2-vCPU reference host.

const probeBatches = 5

// probe runs batch probeBatches times; batch performs n calls (with any
// set-up untimed) and returns the time the calls took.
func probe(n int, batch func(n int) time.Duration) float64 {
	var per []float64
	for i := 0; i < probeBatches; i++ {
		per = append(per, float64(batch(n))/float64(n))
	}
	return median(per)
}

func runProbes(b *bench) error {
	scale := func(n int) int {
		if b.cfg.toy {
			return max(1, n/100)
		}
		return n
	}
	rng := sim.NewRNG(b.cfg.seed)
	a := arch.ScaledConfig()

	newMachine := func() (*machine.Machine, error) {
		m, err := machine.New(&a, 0, b.cfg.seed)
		if err != nil {
			return nil, err
		}
		m.SetPolicy(policy.NewSNUCA())
		return m, nil
	}
	m, err := newMachine()
	if err != nil {
		return err
	}

	// taskrt: TDG insertion of a task with two dependencies, and dispatch
	// of ready empty tasks.
	rt := taskrt.New(m, nil, taskrt.DefaultOptions())
	b.metrics["taskrt.spawn_ns"] = probe(scale(4096), func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			in := amath.NewRange(amath.Addr(rng.Intn(1024))*8192, 8192)
			out := amath.NewRange(amath.Addr(1024+rng.Intn(1024))*8192, 8192)
			rt.Spawn("probe", []taskrt.Dep{{Range: in, Mode: taskrt.In}, {Range: out, Mode: taskrt.InOut}}, nil)
		}
		took := time.Since(t0)
		rt.Wait()
		return took
	})
	b.metrics["taskrt.dispatch_ns"] = probe(scale(4096), func(n int) time.Duration {
		for i := 0; i < n; i++ {
			rt.Spawn("probe", nil, nil)
		}
		t0 := time.Now()
		rt.Wait()
		return time.Since(t0)
	})

	// core: RRT range lookup on a full table (half the probes hit), and
	// registration into an empty table until it is full.
	rrt := core.NewRRT(a.RRTEntries)
	for i := 0; i < a.RRTEntries; i++ {
		rrt.Insert(0, amath.NewRange(amath.Addr(2*i)<<16, 1<<16), arch.Mask{}.Set(i%a.NumCores))
	}
	b.metrics["core.rrt_lookup_ns"] = probe(scale(200_000), func(n int) time.Duration {
		pas := make([]amath.Addr, n)
		for i := range pas {
			pas[i] = amath.Addr(rng.Uint64() % (uint64(4*a.RRTEntries) << 16))
		}
		t0 := time.Now()
		for _, pa := range pas {
			rrt.Lookup(0, pa)
		}
		return time.Since(t0)
	})
	b.metrics["core.rrt_insert_ns"] = probe(scale(2048), func(n int) time.Duration {
		tables := make([]*core.RRT, n)
		for i := range tables {
			tables[i] = core.NewRRT(a.RRTEntries)
		}
		base := amath.Addr(rng.Intn(1024)) << 20
		t0 := time.Now()
		for _, t := range tables {
			for e := 0; e < a.RRTEntries; e++ {
				t.Insert(0, amath.NewRange(base+amath.Addr(e)<<12, 1<<12), arch.Mask{})
			}
		}
		return time.Since(t0) / time.Duration(a.RRTEntries)
	})

	// machine: the demand-access path on a private-cache hit, an LLC hit,
	// and under LLC eviction pressure (a stream over 4x the LLC, like
	// BenchmarkMemoryAccessEvict).
	access := func(region uint64, random bool, n0 int) (float64, error) {
		m, err := newMachine()
		if err != nil {
			return 0, err
		}
		blocks := region / uint64(a.BlockBytes)
		for blk := uint64(0); blk < blocks; blk++ {
			m.AccessAt(0, amath.Addr(blk*uint64(a.BlockBytes)), false, 0)
		}
		next := rng.Uint64() % blocks
		return probe(scale(n0), func(n int) time.Duration {
			vas := make([]amath.Addr, n)
			for i := range vas {
				if random {
					next = rng.Uint64() % blocks
				} else {
					next = (next + 1) % blocks
				}
				vas[i] = amath.Addr(next * uint64(a.BlockBytes))
			}
			t0 := time.Now()
			for _, va := range vas {
				m.AccessAt(0, va, false, 0)
			}
			return time.Since(t0)
		}), nil
	}
	l1 := uint64(a.L1Bytes)
	llc := uint64(a.LLCBankBytes * a.NumCores)
	for _, p := range []struct {
		name   string
		region uint64
		random bool
		n      int
	}{
		{"machine.access_l1hit_ns", l1 / 2, true, 500_000},
		{"machine.access_llchit_ns", llc / 2, true, 200_000},
		{"machine.access_evict_ns", 4 * llc, false, 100_000},
	} {
		if b.metrics[p.name], err = access(p.region, p.random, p.n); err != nil {
			return err
		}
	}

	// vm and cache: a TLB over twice its reach, and an L1-sized cache
	// probed on resident blocks and filled with new ones.
	tlb := vm.NewTLB(a.TLBEntries)
	b.metrics["vm.tlb_access_ns"] = probe(scale(1_000_000), func(n int) time.Duration {
		pages := make([]uint64, n)
		for i := range pages {
			pages[i] = rng.Uint64() % uint64(2*a.TLBEntries)
		}
		t0 := time.Now()
		for _, p := range pages {
			tlb.Access(p)
		}
		return time.Since(t0)
	})
	c, err := cache.New(a.L1Bytes, a.L1Ways, a.BlockBytes)
	if err != nil {
		return err
	}
	resident := uint64(a.L1Bytes / a.BlockBytes)
	for blk := uint64(0); blk < resident; blk++ {
		c.Insert(amath.Addr(blk*uint64(a.BlockBytes)), cache.Exclusive)
	}
	b.metrics["cache.access_hit_ns"] = probe(scale(1_000_000), func(n int) time.Duration {
		addrs := make([]amath.Addr, n)
		for i := range addrs {
			addrs[i] = amath.Addr(rng.Uint64() % resident * uint64(a.BlockBytes))
		}
		t0 := time.Now()
		for _, ad := range addrs {
			c.Access(ad)
		}
		return time.Since(t0)
	})
	fresh := resident
	b.metrics["cache.insert_evict_ns"] = probe(scale(1_000_000), func(n int) time.Duration {
		addrs := make([]amath.Addr, n)
		for i := range addrs {
			addrs[i] = amath.Addr(fresh * uint64(a.BlockBytes))
			fresh++
		}
		t0 := time.Now()
		for _, ad := range addrs {
			c.Insert(ad, cache.Exclusive)
		}
		return time.Since(t0)
	})

	// noc: one data message between seeded tile pairs, without and with
	// the link-contention model (all-to-all traffic, advancing time).
	pairs := func(n int) [][2]int {
		ps := make([][2]int, n)
		for i := range ps {
			ps[i] = [2]int{rng.Intn(a.NumCores), rng.Intn(a.NumCores)}
		}
		return ps
	}
	plain := noc.New(&a)
	b.metrics["noc.send_ns"] = probe(scale(1_000_000), func(n int) time.Duration {
		ps := pairs(n)
		t0 := time.Now()
		for _, p := range ps {
			plain.Send(p[0], p[1], a.BlockBytes)
		}
		return time.Since(t0)
	})
	contended := noc.New(&a)
	contended.EnableContention(a.LinkBandwidthBytes)
	var now sim.Cycles
	b.metrics["noc.send_at_contended_ns"] = probe(scale(300_000), func(n int) time.Duration {
		ps := pairs(n)
		t0 := time.Now()
		for _, p := range ps {
			contended.SendAt(p[0], p[1], a.BlockBytes, now)
			now += sim.Cycles(rng.Intn(4))
		}
		return time.Since(t0)
	})

	// serve: in-process submission of a job whose result is already
	// held, without HTTP (the coalesced fast path of a cached read).
	us, err := probeInprocSubmit(scale(20_000))
	if err != nil {
		return err
	}
	b.metrics["serve.inproc_submit_us"] = us
	return nil
}

func probeInprocSubmit(n int) (float64, error) {
	srv, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	defer srv.Drain(context.Background())
	spec := serve.JobSpec{Bench: "MD5", Policy: "snuca", Factor: loadFactor}
	view, apiErr := srv.Submit(spec)
	if apiErr != nil {
		return 0, apiErr
	}
	deadline := time.Now().Add(serveTimeout)
	for view.Status != serve.StatusDone {
		if view.Status == serve.StatusFailed || view.Status == serve.StatusCanceled || time.Now().After(deadline) {
			return 0, fmt.Errorf("bench: probe job %s", view.Status)
		}
		time.Sleep(time.Millisecond)
		view, _ = srv.Lookup(view.ID)
	}
	return probe(n, func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			srv.Submit(spec)
		}
		return time.Since(t0)
	}) / 1e3, nil
}
