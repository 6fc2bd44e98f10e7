package tdnuca

import (
	"fmt"

	"tdnuca/internal/core"
	"tdnuca/internal/taskrt"
)

// NewSpaceSharedSystems builds one machine hosting several processes
// under multiprogrammed TD-NUCA (the paper's Sec. III-D extension): the
// per-core RRTs are tagged with the process id, each process gets its
// own address space (drawing frames from the shared physical memory),
// its own task runtime, and a disjoint set of cores. The returned
// systems share the machine, so they contend for LLC capacity, the NoC
// and DRAM exactly as co-scheduled applications would.
//
// Each core set must be non-empty and the sets must be disjoint.
// sc.Policy selects TDNUCA (default) or SNUCA — the latter leaves every
// process address-interleaved across all banks, the contended baseline.
// Any other policy, and a Custom one, is an error.
func NewSpaceSharedSystems(sc SystemConfig, coreSets [][]int) ([]*System, error) {
	if sc.Custom != nil {
		return nil, fmt.Errorf("tdnuca: space-shared systems run only %s or %s, not a custom policy", TDNUCA, SNUCA)
	}
	if sc.Policy != "" && sc.Policy != TDNUCA && sc.Policy != SNUCA {
		return nil, fmt.Errorf("tdnuca: space-shared systems run only %s or %s, not %q", TDNUCA, SNUCA, sc.Policy)
	}
	m, opts, err := sc.newMachine()
	if err != nil {
		return nil, err
	}
	router := core.NewProcessRouter(m)
	m.SetPolicy(router)

	seen := make(map[int]bool)
	systems := make([]*System, 0, len(coreSets))
	for i, cores := range coreSets {
		if len(cores) == 0 {
			return nil, fmt.Errorf("tdnuca: process %d has no cores", i)
		}
		for _, c := range cores {
			if c < 0 || c >= m.Cfg.NumCores {
				return nil, fmt.Errorf("tdnuca: process %d: core %d out of range", i, c)
			}
			if seen[c] {
				return nil, fmt.Errorf("tdnuca: core %d assigned to two processes", c)
			}
			seen[c] = true
		}
		pid := i
		if i > 0 {
			pid = m.AddProcess()
		}
		var mgr *core.Manager
		var hooks taskrt.Hooks
		name := fmt.Sprintf("S-NUCA (process %d)", pid)
		if sc.Policy != SNUCA {
			// Unattached processes fall back to interleaving inside the
			// router, so the S-NUCA baseline simply skips Attach.
			mgr = router.Attach(pid, core.Full)
			hooks = mgr
			name = fmt.Sprintf("TD-NUCA (process %d)", pid)
		}
		for _, c := range cores {
			m.BindCore(c, pid)
		}

		opts.Cores = cores
		systems = append(systems, &System{
			cfg:     *m.Cfg,
			m:       m,
			rt:      taskrt.New(m, hooks, opts),
			manager: mgr,
			kind:    PolicyKind(name),
		})
	}
	return systems, nil
}

// MigrateThread moves this system's thread state from one of its cores
// to another (Sec. III-D): the process's RRT entries migrate, the source
// private cache is flushed, and the destination core is bound to the
// process. Returns the migration cost in cycles. Only valid on systems
// running a TD-NUCA variant.
func (s *System) MigrateThread(from, to int) (Cycles, error) {
	if s.manager == nil {
		return 0, fmt.Errorf("tdnuca: MigrateThread requires a TD-NUCA system")
	}
	cyc := s.manager.MigrateThread(from, to)
	s.m.BindCore(to, s.manager.PID())
	return cyc, nil
}
