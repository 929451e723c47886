//go:build unix && go1.24

// Guest sandboxes live outside the Go heap. A Process's Mem is an
// anonymous private mapping, so loading a program costs the pages it
// touches rather than a 64 MiB allocation the Go runtime must zero and
// the GC must pace itself by. The same mapping holds the Process's MCFI
// table region past the guard band, where the guest cannot address it:
// the Tary table, one word per four bytes of code region, then the Bary
// table (MapTables). Sandboxes are recycled: when a Process becomes
// unreachable, a cleanup clears what it could have written, drops the
// table region's pages, and puts the mapping on a free list, where it
// keeps its guest pages resident for the next Process. (The go1.24
// constraint is for runtime.AddCleanup and package weak.)

package vm

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
	"weak"

	"mcfi/internal/tables"
	"mcfi/internal/visa"
)

const (
	// taryCodeLimit is the code extent the Tary table covers: every
	// address below the top of the code region.
	taryCodeLimit = visa.CodeBase + visa.CodeLimit
	// baryEntries is the Bary table's capacity in indirect branches.
	baryEntries = 1 << 15

	sandboxBytes = visa.SandboxSize + visa.GuardSize
	sandboxPages = sandboxBytes / PageSize
	tableWords   = taryCodeLimit/4 + baryEntries
	mappingBytes = sandboxBytes + 4*tableWords

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

// sandbox is one guest address space and its table region, mapped
// together outside the Go heap, with the page protections and dirty
// marks that go with them. It is recycled whole, so a Process gets
// these per-page arrays without allocating them.
type sandbox struct {
	// mapping is the whole mapping: mem, then the table region, which
	// tables views as words.
	mapping []byte
	mem     []byte
	tables  []uint32
	// dirty marks every page that can hold non-zero bytes or a
	// non-zero perms entry (see markDirty). Protect runs from guest
	// mprotect syscalls and from the host's dlopen at once, hence the
	// atomics.
	dirty [sandboxPages]atomic.Bool
	// perms is the owning Process's per-page protection (Process.perms
	// views it). Only Protect with a nonzero prot sets an entry, and it
	// marks those pages dirty, so scrub's zeroing of dirty pages leaves
	// it all zero for the next Process.
	perms [sandboxPages]uint32
	// resident is scrub's scratch for the residency of a run of pages.
	resident [sandboxPages]byte
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

// MapTables lays p's MCFI tables out in its sandbox's table region and
// makes them p.Tables. The region is zero until then and is reached
// only through sync/atomic, by the tables. The tables keep p reachable,
// so the region stays theirs while either is in use.
func (p *Process) MapTables() *tables.Tables {
	if p.Tables != nil {
		panic("vm: MapTables on a Process that has tables")
	}
	p.Tables = tables.New(p.sandbox.tables, taryCodeLimit, p)
	return p.Tables
}

// attachSandbox gives p a zeroed guest address space and arranges for
// it to be released once p is unreachable.
func (p *Process) attachSandbox() {
	sb := acquireSandbox(p)
	p.sandbox, p.Mem, p.perms = sb, sb.mem, sb.perms[:]
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
		m, err := syscall.Mmap(-1, 0, mappingBytes,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			// Out of address space: as fatal as the failed make it replaces.
			panic(fmt.Sprintf("vm: mapping a %d-byte guest sandbox: %v", mappingBytes, err))
		}
		sb = &sandbox{
			mapping: m,
			mem:     m[:sandboxBytes:sandboxBytes],
			tables:  unsafe.Slice((*uint32)(unsafe.Pointer(&m[sandboxBytes])), tableWords),
		}
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

// scrub zeroes every page marked dirty and its perms entry, and clears
// the marks. A marked page that is not resident was never touched
// since its last drop (or was swapped out), so dropping it zeroes it
// without reading it; a resident one is compared first, since most
// marked pages were never written and comparing leaves them unwritten.
// So the scrub costs the pages the Process touched, not every page
// Protect opened.
func (sb *sandbox) scrub() {
	var zero [PageSize]byte
	for first := 0; first < sandboxPages; first++ {
		if !sb.dirty[first].Load() {
			continue
		}
		last := first
		for ; last < sandboxPages && sb.dirty[last].Load(); last++ {
			sb.dirty[last].Store(false)
			atomic.StoreUint32(&sb.perms[last], 0)
		}
		run := sb.mem[first*PageSize : last*PageSize]
		resident := residentPages(run, sb.resident[:last-first])
		for i := 0; i < len(resident); {
			j := i + 1
			for j < len(resident) && resident[j]&1 == resident[i]&1 {
				j++
			}
			pages := run[i*PageSize : j*PageSize]
			if resident[i]&1 == 0 {
				zeroPages(pages)
			} else {
				for off := 0; off < len(pages); off += PageSize {
					if page := pages[off : off+PageSize]; !bytes.Equal(page, zero[:]) {
						clear(page)
					}
				}
			}
			i = j
		}
		first = last
	}
}

// releaseSandbox runs once a Process is unreachable: it zeroes every
// page the Process could have dirtied and the whole table region, then
// puts the sandbox on the free list, unmapping whatever the list no
// longer has room for.
func releaseSandbox(sb *sandbox) {
	// Every table word, not just the last covered extent: a runtime
	// that dlopened past its image left Tary IDs above where the next
	// runtime's extent ends, and as every runtime publishes its first
	// policy at the same version, such a stale ID could pass the next
	// runtime's checks. Dropping the pages costs what the tables
	// wrote, and the next runtime faults in only the pages it uses.
	zeroPages(sb.mapping[sandboxBytes:])
	sb.scrub()
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
		if err := syscall.Munmap(sb.mapping); err != nil {
			panic(fmt.Sprintf("vm: unmapping a guest sandbox: %v", err))
		}
	}
}
