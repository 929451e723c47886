package vm

import "strings"

// Engine selection helpers shared by every front end (mcfi-run,
// mcfi-bench, mcfi-load CLI flags and mcfi-serve request validation),
// so the set of valid names, the error message enumerating them, and
// the flag help text all come from one place.

// EngineUsage returns flag help text for an -engine flag.
func EngineUsage() string {
	return "dispatch engine: " + strings.Join(EngineNames(), ", ")
}

// EngineFlag is a flag.Value for -engine flags:
//
//	engine := vm.EngineBlockJIT
//	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
//
// Invalid names fail at flag-parse time with the same enumerated
// error ParseEngine gives everywhere else.
type EngineFlag Engine

func (f *EngineFlag) String() string { return Engine(*f).String() }

// Set implements flag.Value.
func (f *EngineFlag) Set(s string) error {
	e, err := ParseEngine(s)
	if err != nil {
		return err
	}
	*f = EngineFlag(e)
	return nil
}

// Engine returns the selected engine.
func (f *EngineFlag) Engine() Engine { return Engine(*f) }
