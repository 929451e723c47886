package server

import (
	"fmt"
	"strings"
)

// SyntheticSource generates variant v of a synthetic serving corpus
// (perfbench's serve-mix draws on it): a deterministic MiniC program
// of funcs small functions dispatched through a function-pointer
// table. Every variant differs in its embedded constants, so each has
// a distinct build fingerprint; the program itself runs in a few
// thousand guest instructions. That shape — compile-heavy, run-light — makes a
// corpus of these the instrument for measuring the build store:
// throughput is set by whether the server has the variant's image
// cached, not by guest execution.
//
// The default 256 functions yield roughly 1.8k lines per variant,
// which costs a few tens of milliseconds to build cold and well under
// a millisecond to serve from the mem tier.
func SyntheticSource(v, funcs int) string {
	if funcs <= 0 {
		funcs = 256
	}
	// Deterministic per-variant constants via an xorshift stream.
	rng := uint64(v)*6364136223846793005 + 1442695040888963407
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int((rng >> 1) % uint64(n))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// synthetic serving corpus, variant %d (%d funcs)\n", v, funcs)
	fmt.Fprintf(&b, "enum { VARIANT = %d, NFUNCS = %d };\n\n", v, funcs)
	b.WriteString("typedef long (*step_fn)(long);\n\n")
	for i := 0; i < funcs; i++ {
		k1, k2, k3 := 1+next(1<<20), next(1<<16), 1+next(7)
		fmt.Fprintf(&b, "static long step%d(long x) {\n", i)
		fmt.Fprintf(&b, "\tlong a = x ^ %d;\n", k2)
		fmt.Fprintf(&b, "\ta = a * %d + %d;\n", k3, k1)
		fmt.Fprintf(&b, "\ta += (a >> %d) & 1023;\n", 1+next(5))
		b.WriteString("\tif (a < 0) a = -a;\n")
		fmt.Fprintf(&b, "\treturn a + %d;\n}\n", next(255))
	}
	b.WriteString("\nstatic step_fn steps[NFUNCS] = {\n")
	for i := 0; i < funcs; i++ {
		fmt.Fprintf(&b, "\tstep%d,\n", i)
	}
	b.WriteString("};\n\n")
	b.WriteString(`int main(void) {
	long acc = VARIANT + 1;
	for (int i = 0; i < NFUNCS; i++)
		acc = steps[i](acc) & 0xFFFFFF;
	printf("synth%d: %ld\n", VARIANT, acc);
	return 0;
}
`)
	return b.String()
}
