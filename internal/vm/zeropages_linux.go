//go:build go1.24

package vm

import (
	"syscall"
	"unsafe"
)

// zeroPages zeroes b, a page-aligned range of a private anonymous
// mapping, by dropping its pages: the next access to each maps a fresh
// zero page.
func zeroPages(b []byte) {
	if err := syscall.Madvise(b, syscall.MADV_DONTNEED); err != nil {
		clear(b)
	}
}

// residentPages sets vec[i]'s low bit if page i of b, a page-aligned
// range of a mapping, is resident (mapped, if only to the shared zero
// page), and returns vec. If the kernel cannot tell, every page counts
// as resident.
func residentPages(b []byte, vec []byte) []byte {
	_, _, errno := syscall.Syscall(syscall.SYS_MINCORE,
		uintptr(unsafe.Pointer(&b[0])), uintptr(len(b)), uintptr(unsafe.Pointer(&vec[0])))
	if errno != 0 {
		for i := range vec {
			vec[i] = 1
		}
	}
	return vec
}
