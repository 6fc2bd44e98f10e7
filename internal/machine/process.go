package machine

import (
	"fmt"

	"tdnuca/internal/vm"
)

// Multiprogramming support (the paper's Sec. III-D extension): the
// machine can host several processes, each with its own address space
// drawing physical frames from the shared allocator. Every core runs one
// process at a time; switching flushes the core's (untagged) TLB. The
// per-core RRTs are tagged with the process id so different processes
// can use them concurrently without save/restore at context switches.

// Process is one OS process on the machine.
type Process struct {
	ID int
	AS *vm.AddressSpace
}

// AddProcess creates a new process with an empty address space backed by
// the machine's shared physical allocator and returns its id. Process 0
// (the default) always exists.
func (m *Machine) AddProcess() int {
	p := &Process{ID: len(m.procs), AS: vm.NewAddressSpaceWith(m.Cfg.PageBytes, m.alloc)}
	m.procs = append(m.procs, p)
	return p.ID
}

// Process returns the process with the given id.
func (m *Machine) Process(pid int) *Process {
	if pid < 0 || pid >= len(m.procs) {
		panic(fmt.Sprintf("machine: no process %d", pid))
	}
	return m.procs[pid]
}

// BindCore assigns a core to a process (a context switch): the core's
// TLB is flushed and subsequent accesses translate through the process's
// address space. The RRT entries of the previous process remain resident
// (they are ASID-tagged), exactly as Sec. III-D describes.
func (m *Machine) BindCore(core, pid int) {
	if pid < 0 || pid >= len(m.procs) {
		panic(fmt.Sprintf("machine: no process %d", pid))
	}
	if m.coreProc[core] != pid {
		m.TLBs[core].Flush()
		m.trans[core].Invalidate() // the memo belongs to the old address space
		m.coreProc[core] = pid
	}
}

// procAS returns the address space of the process running on the core.
func (m *Machine) procAS(core int) *vm.AddressSpace {
	return m.procs[m.coreProc[core]].AS
}
