package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Drift compensation. The bench host is a shared 2-vCPU VM whose speed
// drifts by up to 60% over minutes as other tenants load the physical
// cores under it. A frozen kernel reads the host's current speed: an
// xorshift-driven loop of data-dependent branches and read-modify-writes
// over a 16 KB table, so it stays in L1 and measures the core itself. It
// runs only while the workload is quiescent, so the code being measured
// never competes with it and cannot move its reading: a repetition is cut
// into slices at points where no simulation or request is in flight, and
// the kernel is read before the first slice and after each one. A run's
// host times are multiplied by calibNominal / the median of all its
// readings.
//
// The kernel's shape and the per-run compensation come from measurements
// on the reference host (README.md): averaged over a run, the workloads'
// host time followed this kernel at r = 0.87-0.97 with a log-log slope
// near 1, while a memory-bound kernel (16 MB of random read-modify-writes)
// followed at r = 0.52-0.66 and missed the slowest periods. A single
// reading is noisier than a run's median: per slice, r = 0.55-0.64.
//
// A reading runs the kernel calibSamples times on one thread pinned to
// each CPU the benchmark uses, all CPUs at once as the workload loads
// them, each sample timed in thread CPU time; it is the mean over CPUs of
// the per-CPU median.

const (
	calibWords   = 4 << 10   // 16 KB of uint32 per sampler
	calibSteps   = 256 << 10 // one kernel sample
	calibSamples = 5

	// calibNominal is the kernel's typical reading on the 2-vCPU
	// reference host (Intel Xeon, Go 1.24), so compensated times there
	// read close to raw ones.
	calibNominal = 3730 * time.Microsecond
)

// calibrator owns one kernel table per sampler, the CPU each sampler is
// pinned to (-1: unpinned, when the affinity mask is unreadable), and
// every reading taken so far.
type calibrator struct {
	cpus     []int
	tables   [][]uint32
	readings []float64 // ns
}

// newCalibrator prepares one sampler per CPU the Go scheduler may use.
func newCalibrator() *calibrator {
	c := &calibrator{cpus: allowedCPUs(runtime.GOMAXPROCS(0))}
	for range c.cpus {
		t := make([]uint32, calibWords)
		for i := range t {
			t[i] = uint32(i) * 2654435761
		}
		c.tables = append(c.tables, t)
	}
	return c
}

type cpuMask [16]uint64 // 1024 CPUs, the kernel's default cpumask size

// allowedCPUs returns the first n CPUs of the process's affinity mask,
// padded with -1 when fewer are readable.
func allowedCPUs(n int) []int {
	var mask cpuMask
	var cpus []int
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	for cpu := 0; errno == 0 && cpu < 64*len(mask) && len(cpus) < n; cpu++ {
		if mask[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	for len(cpus) < n {
		cpus = append(cpus, -1)
	}
	return cpus
}

// pinThread restricts the calling OS thread to one CPU. On failure the
// sampler simply stays unpinned.
func pinThread(cpu int) {
	if cpu < 0 {
		return
	}
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sample runs the kernel once over table and returns the thread CPU
// time it took.
func sample(table []uint32) time.Duration {
	t0 := threadCPU()
	x := uint64(0x9E3779B97F4A7C15)
	acc := uint32(0)
	for i := 0; i < calibSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := table[x&(calibWords-1)]
		switch {
		case v&1 == 0:
			acc += v >> 3
		case v&2 == 0:
			acc ^= v
		default:
			acc -= v << 1
		}
		table[x&(calibWords-1)] = v + acc
	}
	return threadCPU() - t0
}

// read takes one kernel reading and keeps it. The caller must have
// quiesced the workload. It returns after every sampler has exited.
func (c *calibrator) read() {
	medians := make([]time.Duration, len(c.tables))
	var wg sync.WaitGroup
	for i := range c.tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Never unlocked: the pinned thread exits with the goroutine
			// instead of returning to the scheduler with its affinity.
			runtime.LockOSThread()
			pinThread(c.cpus[i])
			got := make([]time.Duration, calibSamples)
			for s := range got {
				got[s] = sample(c.tables[i])
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			medians[i] = got[len(got)/2]
		}(i)
	}
	wg.Wait()
	var sum time.Duration
	for _, m := range medians {
		sum += m
	}
	c.readings = append(c.readings, float64(sum)/float64(len(medians)))
}

// reading is the median of the readings taken so far, in ns.
func (c *calibrator) reading() float64 { return median(c.readings) }

// factor converts the run's raw host times into compensated ones.
func (c *calibrator) factor() float64 { return float64(calibNominal) / c.reading() }

// measure runs the slices one after another, reads the kernel before
// the first and after every slice, and returns the slices' total raw
// time. Each slice must leave the workload quiescent when it returns. It
// stops at the first error.
func (c *calibrator) measure(slices ...func() error) (time.Duration, error) {
	var raw time.Duration
	c.read()
	for _, s := range slices {
		t0 := time.Now()
		err := s()
		raw += time.Since(t0)
		c.read()
		if err != nil {
			return raw, err
		}
	}
	return raw, nil
}
