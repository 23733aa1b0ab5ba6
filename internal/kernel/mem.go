package kernel

import "sync"

// PageSize is the simulated page size.
const PageSize = 4096

// AddressSpace tracks a process's (variant's) virtual memory layout: the
// program break and the mmap regions. Each variant has its own, with its
// own randomized bases, so the addresses returned by brk/mmap differ across
// variants exactly as they do under ASLR — which is why the MVEE must never
// compare raw pointer values across variants.
type AddressSpace struct {
	mu       sync.Mutex
	brkBase  uint64
	brk      uint64
	mmapBase uint64
	mmapNext uint64
	regions  map[uint64]uint64 // start -> length
}

// NewAddressSpace creates an address space with the given (randomized)
// heap and mmap bases.
func NewAddressSpace(brkBase, mmapBase uint64) *AddressSpace {
	return &AddressSpace{
		brkBase:  brkBase,
		brk:      brkBase,
		mmapBase: mmapBase,
		mmapNext: mmapBase,
		regions:  make(map[uint64]uint64),
	}
}

// Brk implements sys_brk: with arg 0 it reports the current break;
// otherwise it moves the break, refusing to go below the base.
func (as *AddressSpace) Brk(addr uint64) uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	if addr == 0 {
		return as.brk
	}
	if addr < as.brkBase {
		return as.brk // refused; Linux returns the unchanged break
	}
	as.brk = addr
	return as.brk
}

// Mmap implements an anonymous mapping: it reserves length bytes (rounded
// to pages) and returns the start address.
func (as *AddressSpace) Mmap(length uint64) (uint64, Errno) {
	if length == 0 {
		return 0, EINVAL
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	n := (length + PageSize - 1) &^ uint64(PageSize-1)
	start := as.mmapNext
	as.mmapNext += n + PageSize // guard page between regions
	as.regions[start] = n
	return start, OK
}

// Munmap removes a previously mapped region. Partial unmaps are not
// supported (EINVAL), which the benchmarks never need.
func (as *AddressSpace) Munmap(start, length uint64) Errno {
	as.mu.Lock()
	defer as.mu.Unlock()
	n, ok := as.regions[start]
	if !ok {
		return EINVAL
	}
	want := (length + PageSize - 1) &^ uint64(PageSize-1)
	if want != n {
		return EINVAL
	}
	delete(as.regions, start)
	return OK
}

// Mapped reports whether addr falls inside any live mmap region or the heap.
func (as *AddressSpace) Mapped(addr uint64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	if addr >= as.brkBase && addr < as.brk {
		return true
	}
	for start, n := range as.regions {
		if addr >= start && addr < start+n {
			return true
		}
	}
	return false
}
