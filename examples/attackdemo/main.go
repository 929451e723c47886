// Attack demo: the paper's security arguments (§8.3), executed.
//
// Scenario 1 — stack smash: a buffer-adjacent write overwrites a
// return address with an address-taken "evil" function. Baseline
// execution is hijacked; MCFI's return check halts at the violation.
//
// Scenario 2 — GnuPG CVE-2006-6235 analogue: an attacker-controlled
// function pointer is aimed at an execve-like function. Coarse-grained
// CFI (any address-taken function is a legal call target) permits the
// jump; MCFI's type-matching policy forbids it.
//
//	go run ./examples/attackdemo
package main

import (
	"fmt"
	"log"

	"mcfi/internal/baseline"
	"mcfi/internal/cfg"
	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

const smashSrc = `
int pwned = 0;
void evil(void) { pwned = 1; puts("  !! control flow hijacked: evil() is running"); }
void (*keep)(void) = evil;   // evil is address-taken, a plausible ROP pivot

long victim(long target) {
	long local = 0;
	long *p = &local;
	p[2] = target;   // p[2] lands on the saved return address
	return local;
}
int main(void) {
	puts("  victim() called with a corrupting payload...");
	victim((long)evil);
	puts("  victim returned normally");
	return pwned;
}`

const gnupgSrc = `
int execve_like(char *path, char **argv) {
	puts("  !! spawning a shell (execve reached)");
	return 0;
}
int (*libc_ref)(char *, char **) = execve_like;  // address-taken via libc linkage

void (*handler)(void);

int main(void) {
	handler = (void (*)(void))execve_like;   // attacker-corrupted pointer
	handler();
	return 0;
}`

// build compiles one scenario, with or without MCFI instrumentation.
func build(name, src string, instrumented bool) (*linker.Image, error) {
	return toolchain.New(
		toolchain.WithProfile(visa.Profile64),
		toolchain.WithInstrument(instrumented),
	).Build(toolchain.Source{Name: name, Text: src})
}

// run builds one scenario and runs it to the end, returning the guest's
// exit code, its output, and the error the run ended in (a *vm.Fault
// for a halted check or a crash, nil for a clean exit).
func run(name, src string, instrumented bool) (int64, string, error) {
	img, err := build(name, src, instrumented)
	if err != nil {
		return 0, "", err
	}
	rt, err := mrt.New(img, mrt.Options{})
	if err != nil {
		return 0, "", err
	}
	code, err := rt.Run(50_000_000)
	return code, rt.Output(), err
}

// scenario runs one scenario and prints its output and outcome.
func scenario(name, src string, instrumented bool) {
	code, out, err := run(name, src, instrumented)
	fmt.Print(out)
	if f, ok := err.(*vm.Fault); ok && f.Kind == vm.FaultCFI {
		fmt.Printf("  => MCFI halted the program: %v\n", f)
		return
	}
	if err != nil {
		fmt.Printf("  => terminated: %v\n", err)
		return
	}
	fmt.Printf("  => exited %d\n", code)
}

// funcAddr is the code offset of the named function in img.
func funcAddr(img *linker.Image, name string) int {
	for _, f := range img.Aux.Funcs {
		if f.Name == name {
			return f.Offset
		}
	}
	return -1
}

// policyVerdict is whether one CFI policy allows scenario 2's hijacked
// call.
type policyVerdict struct {
	name   string
	allows bool
}

// comparePolicies asks every baseline policy, and MCFI's own, whether
// scenario 2's indirect call may reach execve_like. (Paper §8.3: "this
// kind of attack may still be possible under coarse-grained CFI, but
// not fine-grained CFI".)
func comparePolicies() ([]policyVerdict, error) {
	img, err := build("gnupg", gnupgSrc, true)
	if err != nil {
		return nil, err
	}
	g := cfg.Generate(cfg.Input{
		Funcs: img.Aux.Funcs, IBs: img.Aux.IBs, RetSites: img.Aux.RetSites,
		SetjmpConts: img.Aux.SetjmpConts, Annotations: img.Aux.AsmAnnotations,
		Profile: img.Profile,
	})
	var callSite int
	for _, ib := range img.Aux.IBs {
		if ib.Kind.String() == "icall" {
			callSite = ib.Offset
		}
	}
	execveAddr := funcAddr(img, "execve_like")
	var out []policyVerdict
	for _, p := range baseline.Evaluate(img, g, len(img.Code)) {
		out = append(out, policyVerdict{p.Name, p.Allows(callSite, execveAddr)})
	}
	return out, nil
}

func main() {
	fmt.Println("--- Scenario 1: return-address corruption ---")
	fmt.Println("[baseline, no CFI]")
	scenario("smash", smashSrc, false)
	fmt.Println("[MCFI]")
	scenario("smash", smashSrc, true)

	fmt.Println()
	fmt.Println("--- Scenario 2: function-pointer hijack to execve (GnuPG CVE-2006-6235) ---")
	fmt.Println("[baseline, no CFI]")
	scenario("gnupg", gnupgSrc, false)
	fmt.Println("[MCFI]")
	scenario("gnupg", gnupgSrc, true)

	// Policy-level comparison: would coarse-grained CFI have allowed
	// the scenario-2 jump?
	fmt.Println()
	fmt.Println("--- Policy comparison for scenario 2 ---")
	verdicts, err := comparePolicies()
	if err != nil {
		log.Fatal(err)
	}
	for _, v := range verdicts {
		verdict := "BLOCKS"
		if v.allows {
			verdict = "allows"
		}
		fmt.Printf("  %-12s %s the hijacked call to execve_like\n", v.name, verdict)
	}
}
