//go:build unix && go1.24

// Guest sandboxes live outside the Go heap. A Process's Mem is an
// anonymous private mapping, so loading a program costs the pages it
// touches rather than a 64 MiB allocation the Go runtime must zero and
// the GC must pace itself by. Sandboxes are recycled: when a Process
// becomes unreachable, a cleanup clears what it could have written and
// puts the mapping on a free list, where it keeps its resident pages
// for the next Process. (The go1.24 constraint is for
// runtime.AddCleanup and package weak.)

package vm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"weak"

	"mcfi/internal/visa"
)

const (
	sandboxBytes = visa.SandboxSize + visa.GuardSize
	sandboxPages = sandboxBytes / PageSize

	// The pool sizes itself from what it holds, as the GC paces the
	// heap: idle sandboxes never outnumber those in use, and held ones
	// may double between forced collections. These floors keep a
	// program with few runtimes from churning: below sandboxFreeMin
	// idle sandboxes nothing is unmapped, and below sandboxHeldMin held
	// ones (1 GiB of address space, resident only where touched) no
	// collection is forced.
	sandboxFreeMin = 4
	sandboxHeldMin = 16
)

// sandbox is one guest address space, mapped outside the Go heap.
type sandbox struct {
	mem []byte
	// dirty marks every page that can hold non-zero bytes (see
	// markDirty). Protect runs from guest mprotect syscalls and from
	// the host's dlopen at once, hence the atomics.
	dirty [sandboxPages]atomic.Bool
}

// markDirty records that Protect made pages [first, last) accessible.
// Guest stores need ProtWrite and the runtime writes only code, data,
// heap and stack it has mapped, so these pages — and the page after
// them — are the only ones that can hold non-zero bytes. The page after
// counts because an access is checked on its first byte only: an
// 8-byte store at the end of the range spills into the next page,
// whether that is unmapped heap or the guard band.
func (sb *sandbox) markDirty(first, last int64) {
	for pg := first; pg <= last && pg < sandboxPages; pg++ {
		sb.dirty[pg].Store(true)
	}
}

type sandboxPool struct {
	mu sync.Mutex
	// released is signalled whenever a sandbox leaves live.
	released sync.Cond
	// free holds released sandboxes, zeroed; at most
	// max(sandboxFreeMin, len(live)) of them.
	free []*sandbox
	// live maps every sandbox a Process has taken and not yet released
	// to that Process, weakly: a nil pointer means the Process is gone
	// and its release is pending.
	live map[*sandbox]weak.Pointer[Process]
	// collectAt is how many live sandboxes make NewProcess, finding
	// the free list empty, force a collection before mapping another.
	// Each forced collection sets it to twice the number of Processes
	// it left reachable, and each release lowers it to twice the number
	// still live if that is fewer; it never drops below sandboxHeldMin.
	// Processes that stay reachable so raise it rather than force a
	// collection on every NewProcess.
	collectAt int
}

var sandboxes = sandboxPool{
	live:      map[*sandbox]weak.Pointer[Process]{},
	collectAt: sandboxHeldMin,
}

func init() { sandboxes.released.L = &sandboxes.mu }

// attachSandbox gives p a zeroed guest address space and arranges for
// it to be released once p is unreachable.
func (p *Process) attachSandbox() {
	sb := acquireSandbox(p)
	p.sandbox, p.Mem = sb, sb.mem
	// Cleanups share one goroutine with every other cleanup and
	// finalizer in the program; scrubbing can take milliseconds, so it
	// runs on its own.
	runtime.AddCleanup(p, func(sb *sandbox) { go releaseSandbox(sb) }, sb)
}

func acquireSandbox(p *Process) *sandbox {
	s := &sandboxes
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) == 0 && len(s.live) >= s.collectAt {
		// The GC cannot see sandboxes, so it does not collect on their
		// account: unreachable Processes hold theirs until a collection
		// finds them. runtime.GC returns once it has queued their
		// cleanups; wait for the first release it brings, if any.
		s.mu.Unlock()
		runtime.GC()
		s.mu.Lock()
		for len(s.free) == 0 && s.reachable() < len(s.live) {
			s.released.Wait()
		}
		s.collectAt = max(sandboxHeldMin, 2*s.reachable())
	}
	var sb *sandbox
	if n := len(s.free); n > 0 {
		sb = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		mem, err := syscall.Mmap(-1, 0, sandboxBytes,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			// Out of address space: as fatal as the failed make it replaces.
			panic(fmt.Sprintf("vm: mapping a %d-byte guest sandbox: %v", sandboxBytes, err))
		}
		sb = &sandbox{mem: mem}
	}
	s.live[sb] = weak.Make(p)
	return sb
}

// reachable counts the live sandboxes whose Process is still reachable;
// the release of each of the others is queued and will signal
// released. Caller holds mu.
func (s *sandboxPool) reachable() int {
	n := 0
	for _, owner := range s.live {
		if owner.Value() != nil {
			n++
		}
	}
	return n
}

// releaseSandbox runs once a Process is unreachable: it zeroes every
// page the Process could have dirtied, then puts the sandbox on the
// free list, unmapping whatever the list no longer has room for.
func releaseSandbox(sb *sandbox) {
	var zero [PageSize]byte
	for pg := range sb.dirty {
		if !sb.dirty[pg].Load() {
			continue
		}
		sb.dirty[pg].Store(false)
		// Most marked pages were never written; comparing first leaves
		// them unwritten, so they cost no resident memory.
		page := sb.mem[pg*PageSize : (pg+1)*PageSize]
		if !bytes.Equal(page, zero[:]) {
			clear(page)
		}
	}
	s := &sandboxes
	s.mu.Lock()
	delete(s.live, sb)
	s.collectAt = max(sandboxHeldMin, min(s.collectAt, 2*len(s.live)))
	s.free = append(s.free, sb)
	var unmap []*sandbox
	if n := max(sandboxFreeMin, len(s.live)); len(s.free) > n {
		unmap = append(unmap, s.free[n:]...)
		clear(s.free[n:])
		s.free = s.free[:n]
	}
	s.released.Broadcast()
	s.mu.Unlock()
	for _, sb := range unmap {
		if err := syscall.Munmap(sb.mem); err != nil {
			panic(fmt.Sprintf("vm: unmapping a guest sandbox: %v", err))
		}
	}
}
