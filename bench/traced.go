package main

import (
	"fmt"
	"math"
	"time"

	"tdnuca/internal/harness"
	"tdnuca/internal/machine"
	"tdnuca/internal/sim"
	"tdnuca/internal/taskrt"
)

// The traced pass rebuilds each run from public functions (newSimRun)
// with a timing machine.Policy wrapper and timing taskrt.Hooks, runs it
// sequentially, and checks it against its untraced harness twin. Task
// body time is the gap between TaskStarting returning and TaskEnded
// being entered; Place calls are aggregated as a count plus total time
// instead of spans, so the per-access overhead stays a few clock reads.

// layerTimes accumulates one traced run's host time per layer boundary.
type layerTimes struct {
	created, starting, ended, body time.Duration
	nCreated, nStarting, nEnded    int
	bodyStart                      time.Time
	place                          time.Duration
	nPlace                         int
}

type timedHooks struct {
	inner taskrt.Hooks
	lt    *layerTimes
}

func (h timedHooks) TaskCreated(t *taskrt.Task) {
	s := time.Now()
	h.inner.TaskCreated(t)
	h.lt.created += time.Since(s)
	h.lt.nCreated++
}

func (h timedHooks) TaskStarting(t *taskrt.Task, core int) sim.Cycles {
	s := time.Now()
	c := h.inner.TaskStarting(t, core)
	e := time.Now()
	h.lt.starting += e.Sub(s)
	h.lt.nStarting++
	h.lt.bodyStart = e
	return c
}

func (h timedHooks) TaskEnded(t *taskrt.Task, core int) sim.Cycles {
	s := time.Now()
	h.lt.body += s.Sub(h.lt.bodyStart)
	c := h.inner.TaskEnded(t, core)
	h.lt.ended += time.Since(s)
	h.lt.nEnded++
	return c
}

type timedPolicy struct {
	machine.Policy
	lt *layerTimes
}

func (p timedPolicy) Place(ac machine.AccessContext) (machine.Placement, sim.Cycles) {
	s := time.Now()
	pl, c := p.Policy.Place(ac)
	p.lt.place += time.Since(s)
	p.lt.nPlace++
	return pl, c
}

// observingPolicy is timedPolicy for a policy that also observes silent
// writes (R-NUCA). The machine detects machine.WriteObserver by type
// assertion, so a wrapper that dropped it would silently change R-NUCA's
// behaviour; one that always had it would add calls to the other
// policies' access paths.
type observingPolicy struct {
	timedPolicy
	obs machine.WriteObserver
}

func (p observingPolicy) ObserveWrite(ac machine.AccessContext) sim.Cycles {
	return p.obs.ObserveWrite(ac)
}

// add accumulates another run's layer times.
func (lt *layerTimes) add(o layerTimes) {
	lt.created += o.created
	lt.starting += o.starting
	lt.ended += o.ended
	lt.body += o.body
	lt.place += o.place
	lt.nCreated += o.nCreated
	lt.nStarting += o.nStarting
	lt.nEnded += o.nEnded
	lt.nPlace += o.nPlace
}

func (lt *layerTimes) wrapHooks(h taskrt.Hooks) taskrt.Hooks { return timedHooks{inner: h, lt: lt} }

func (lt *layerTimes) wrapPolicy(p machine.Policy) machine.Policy {
	tp := timedPolicy{Policy: p, lt: lt}
	if obs, ok := p.(machine.WriteObserver); ok {
		return observingPolicy{timedPolicy: tp, obs: obs}
	}
	return tp
}

// tracedRun is the outcome of one traced rebuild.
type tracedRun struct {
	job     harness.Job
	lt      layerTimes
	total   time.Duration // spec resolution, machine.New, wiring and spec.Build
	newTook time.Duration
	build   time.Duration // spec.Build: TDG construction, scheduling, hooks, bodies
	tasks   int
	met     machine.Metrics
}

// traceJob runs one job traced and checks its fidelity against twin: the
// same makespan, machine metrics, NoC byte-hops and message count.
func (b *bench) traceJob(j harness.Job, twin harness.Result, id int) (tracedRun, error) {
	tr := tracedRun{job: j}
	start := time.Now()
	r, err := newSimRun(j, &tr.lt)
	if err != nil {
		return tr, err
	}
	tr.newTook = r.newTook
	t0 := time.Now()
	r.spec.Build(r.rt)
	tr.build = time.Since(t0)
	tr.total = time.Since(start)
	tr.tasks = r.rt.ExecutedTasks()
	tr.met = r.m.Metrics()

	name := fmt.Sprintf("%s/%s", j.Bench, j.Kind)
	b.spans.add("run "+name, "harness", 0, id, start, tr.total, nil)
	b.spans.add("machine.New", "machine", 0, id, r.newStart, r.newTook, nil)
	b.spans.add("spec.Build", "taskrt", 0, id, t0, tr.build, map[string]any{
		"tasks":         tr.tasks,
		"hooks_ms":      ms(tr.lt.created + tr.lt.starting + tr.lt.ended),
		"bodies_ms":     ms(tr.lt.body),
		"place_ms":      ms(tr.lt.place),
		"place_calls":   tr.lt.nPlace,
		"accesses":      tr.met.Accesses,
		"makespan_cyc":  uint64(r.rt.Makespan()),
		"twin_makespan": uint64(twin.Cycles),
	})

	b.check(r.rt.Makespan() == twin.Cycles && tr.met == twin.Metrics &&
		r.m.Net.ByteHops() == twin.DataMovement && r.m.Net.Messages() == twin.NoCMessages,
		"traced %s diverges from harness.Run: makespan %d vs %d, byte-hops %d vs %d, messages %d vs %d, metrics equal %v",
		name, r.rt.Makespan(), twin.Cycles, r.m.Net.ByteHops(), twin.DataMovement,
		r.m.Net.Messages(), twin.NoCMessages, tr.met == twin.Metrics)
	return tr, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceSim is the traced pass of a simulation workload: untraced harness
// twins run sequentially under the calibrator, then every job is rebuilt
// traced and compared with its twin, and one pooled repetition must
// digest like the sequential twins.
func (b *bench) traceSim(jobs []harness.Job, workers int) error {
	var twins []jobRun
	_, err := b.cal.measure(func() (err error) {
		twins, err = runJobs(jobs, 1)
		return err
	})
	b.attempted += len(jobs)
	if err != nil {
		b.fail("%s twins: %v", b.cfg.workload, err)
		return nil
	}
	for i, tw := range twins {
		b.spans.add(fmt.Sprintf("harness twin %s/%s", tw.res.Benchmark, tw.res.Policy), "harness", 1, i, tw.start, tw.took, nil)
	}
	traced := make([]tracedRun, len(jobs))
	for i, j := range jobs {
		if traced[i], err = b.traceJob(j, twins[i].res, i); err != nil {
			return err
		}
	}
	if workers > 1 {
		pooled, err := runJobs(jobs, workers)
		b.attempted += len(jobs)
		if err != nil {
			b.fail("%s pooled repetition: %v", b.cfg.workload, err)
		} else {
			p, s := digestRuns(pooled), digestRuns(twins)
			b.check(p.Equal(s), "%s pooled digest %016x != sequential %016x", b.cfg.workload, p.Hash, s.Hash)
		}
	}
	b.simLayerMetrics(twins, traced)
	b.simCounts(jobs, twins)
	return nil
}

// placeMetric names each policy's per-call Place time.
var placeMetric = map[harness.PolicyKind]string{
	harness.SNUCA:  "policy.place_ns.snuca",
	harness.RNUCA:  "policy.place_ns.rnuca",
	harness.TDNUCA: "policy.place_ns.tdnuca",
}

// simLayerMetrics derives the per-layer metrics of the simulation layers
// from the traced runs and the host time of their untraced twins. A
// policy none of the runs used reads 0.
func (b *bench) simLayerMetrics(twins []jobRun, traced []tracedRun) {
	var all layerTimes
	byKind := map[harness.PolicyKind]*layerTimes{harness.SNUCA: {}, harness.RNUCA: {}, harness.TDNUCA: {}}
	var twinTook, tracedTook, newTook, build time.Duration
	var tasks, accesses int
	for i, tr := range traced {
		twinTook += twins[i].took
		tracedTook += tr.total
		newTook += tr.newTook
		build += tr.build
		tasks += tr.tasks
		accesses += int(tr.met.Accesses)
		all.add(tr.lt)
		byKind[tr.job.Kind].add(tr.lt)
	}
	us := func(d time.Duration, calls int) float64 { return ratio(float64(d)/1e3, float64(calls)) }
	ns := func(d time.Duration, calls int) float64 { return ratio(float64(d), float64(calls)) }
	td := byKind[harness.TDNUCA]
	b.metrics["harness.run_ms"] = ms(twinTook) / float64(len(traced))
	b.metrics["machine.new_us"] = us(newTook, len(traced))
	b.metrics["taskrt.self_us_per_task"] = us(build-all.created-all.starting-all.ended-all.body, tasks)
	b.metrics["core.task_created_us"] = us(td.created, td.nCreated)
	b.metrics["core.task_starting_us"] = us(td.starting, td.nStarting)
	b.metrics["core.task_ended_us"] = us(td.ended, td.nEnded)
	b.metrics["policy.place_ns"] = ns(all.place, all.nPlace)
	for k, name := range placeMetric {
		b.metrics[name] = ns(byKind[k].place, byKind[k].nPlace)
	}
	b.metrics["machine.access_ns"] = ns(all.body-all.place, accesses)
	b.metrics["machine.maccesses_per_s"] = ratio(float64(accesses)/1e6, twinTook.Seconds()*b.cal.factor())
	b.metrics["trace.overhead_pct"] = 100 * (ratio(float64(tracedTook), float64(twinTook)) - 1)
}

// simCounts reports the exact work counters of a batch of runs.
func (b *bench) simCounts(jobs []harness.Job, runs []jobRun) {
	var tasks, tlbHits, tlbMisses, msgs, regFail uint64
	var hop, queue uint64
	var m machine.Metrics
	for _, r := range runs {
		x := r.res.Metrics
		tasks += uint64(r.res.Tasks)
		tlbHits += r.res.TLBHits
		tlbMisses += r.res.TLBMisses
		msgs += r.res.NoCMessages
		regFail += r.res.RegisterFailures
		hop += uint64(r.res.Stack.NoCHop)
		queue += uint64(r.res.Stack.NoCQueue)
		m.Accesses += x.Accesses
		m.L1Hits += x.L1Hits
		m.L1Misses += x.L1Misses
		m.LLCAccesses += x.LLCAccesses
		m.LLCHits += x.LLCHits
		m.DRAMReads += x.DRAMReads
		m.DRAMWrites += x.DRAMWrites
		m.FlushedBlocks += x.FlushedBlocks
		m.RRTLookups += x.RRTLookups
	}
	f := func(v uint64) float64 { return float64(v) }
	b.metrics["taskrt.tasks"] = f(tasks)
	b.metrics["machine.accesses"] = f(m.Accesses)
	b.metrics["machine.l1_hit_ratio"] = ratio(f(m.L1Hits), f(m.L1Hits+m.L1Misses))
	b.metrics["machine.llc_accesses"] = f(m.LLCAccesses)
	b.metrics["machine.llc_hit_ratio"] = ratio(f(m.LLCHits), f(m.LLCAccesses))
	b.metrics["machine.dram_accesses"] = f(m.DRAMReads + m.DRAMWrites)
	b.metrics["machine.flushed_blocks"] = f(m.FlushedBlocks)
	b.metrics["vm.tlb_miss_ratio"] = ratio(f(tlbMisses), f(tlbHits+tlbMisses))
	b.metrics["noc.messages"] = f(msgs)
	b.metrics["noc.queue_share"] = ratio(f(queue), f(hop+queue))
	b.metrics["core.rrt_lookups"] = f(m.RRTLookups)
	b.metrics["core.register_failures"] = f(regFail)
	b.metrics["sim.td_speedup"], b.metrics["sim.td_llc_ratio"] = tdVersusS(jobs, runs)
}

// tdVersusS aggregates TD-NUCA against S-NUCA over every benchmark and
// seed with both runs: the geometric-mean speedup (Fig. 8's average,
// paper 1.18) and the mean LLC-access ratio (Fig. 9's average, paper
// 0.48). Both are 0 when no pair exists.
func tdVersusS(jobs []harness.Job, runs []jobRun) (speedup, llcRatio float64) {
	type key struct {
		bench string
		seed  uint64
	}
	base := map[key]harness.Result{}
	for i, j := range jobs {
		if j.Kind == harness.SNUCA {
			base[key{j.Bench, j.Cfg.Seed}] = runs[i].res
		}
	}
	logSum, ratioSum, n := 0.0, 0.0, 0
	for i, j := range jobs {
		s, ok := base[key{j.Bench, j.Cfg.Seed}]
		if j.Kind != harness.TDNUCA || !ok {
			continue
		}
		td := runs[i].res
		logSum += math.Log(td.Speedup(s))
		ratioSum += ratio(float64(td.Metrics.LLCAccesses), float64(s.Metrics.LLCAccesses))
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(n)), ratioSum / float64(n)
}
