//go:build unix && !linux && go1.24

package vm

// zeroPages zeroes b, a page-aligned range of a private anonymous
// mapping. MADV_DONTNEED zero-fills only on Linux, so elsewhere it
// clears.
func zeroPages(b []byte) { clear(b) }

// residentPages reports every page of b resident: without mincore's
// Linux semantics, scrub compares each one.
func residentPages(b []byte, vec []byte) []byte {
	for i := range vec {
		vec[i] = 1
	}
	return vec
}
