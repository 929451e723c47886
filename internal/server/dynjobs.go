package server

import (
	"fmt"
	"strings"

	"mcfi/internal/toolchain"
)

// Dynamic-linking job kinds: synthesized guests that exercise MCFI's
// update-transaction machinery under multi-tenant serving load. Both
// kinds are deterministic functions of (kind, work), so their build
// fingerprints cache like any other job.

const (
	// defaultDlopenModules is the module count of a kind="dlopen" job
	// when the request leaves Work at 0; maxDynModules caps either
	// kind so a hostile request cannot make one job link forever.
	defaultDlopenModules = 8
	defaultJitsimStages  = 4
	maxDynModules        = 32
)

// dynSources synthesizes the host program and plugin modules of a
// dynamic job kind.
//
// "dlopen" is update-heavy: the guest loads `work` modules back to
// back, touching each through one checked call — per job, `work`
// dlopen policy updates plus the dlsym flips, with barely any compute
// between them.
//
// "jitsim" is check-heavy: a staged-JIT simulation (a tiered runtime
// emitting code at run time, the paper's §8.2 dynamic-code scenario)
// that loads a few stage modules and then hammers each through a hot
// checked function-pointer loop, so update transactions interleave
// with a high rate of concurrent check transactions.
func dynSources(kind string, work int) (toolchain.Source, []toolchain.Source, error) {
	mods, iters := defaultDlopenModules, 16
	if kind == "jitsim" {
		mods, iters = defaultJitsimStages, 2000
	}
	if work > 0 {
		mods = work
	}
	if mods > maxDynModules {
		mods = maxDynModules
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "int main(void) {\n\tlong acc = 0;\n")
	for i := 0; i < mods; i++ {
		fmt.Fprintf(&sb, `
	long h%d = dlopen("%s%d");
	if (h%d == 0) return %d;
	long a%d = dlsym(h%d, "%s%d_fn");
	if (a%d == 0) return %d;
	long (*f%d)(long) = (long (*)(long))a%d;
	for (int i%d = 0; i%d < %d; i%d++) acc += f%d(i%d);
`, i, kind, i, i, 10+i, i, i, kind, i, i, 50+i, i, i, i, i, iters, i, i, i)
	}
	sb.WriteString("\tprintf(\"%ld\\n\", acc);\n\treturn 0;\n}\n")
	host := toolchain.Source{
		Name: fmt.Sprintf("%s-%d", kind, mods),
		Text: sb.String(),
	}

	plugins := make([]toolchain.Source, mods)
	for i := 0; i < mods; i++ {
		plugins[i] = toolchain.Source{
			Name: fmt.Sprintf("%s%d", kind, i),
			Text: fmt.Sprintf(`
long %s%d_state = %d;
long %s%d_fn(long x) { return x * %s%d_state + %d; }
`, kind, i, i+3, kind, i, kind, i, i),
		}
	}
	return host, plugins, nil
}
