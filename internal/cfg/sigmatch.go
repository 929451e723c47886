package cfg

import "strings"

// Function-type signatures (ctypes.Signature) have the shape
//
//	f(<param>,<param>,...)->(<result>)
//
// where each parameter is followed by a comma and a trailing "..."
// marks a variadic type. Parameters may nest parentheses and braces
// (function-pointer and record types), so splitting happens at depth 0
// only.

// parsedSig is a decomposed function-type signature.
type parsedSig struct {
	params   []string
	variadic bool
	result   string
}

// parseSig decomposes a function signature, appending its parameters
// to params; ok is false for strings that are not function signatures.
func parseSig(sig string, params []string) (parsedSig, bool) {
	if !strings.HasPrefix(sig, "f(") {
		return parsedSig{}, false
	}
	depth := 0
	ps := parsedSig{params: params}
	start := 2
	i := 2
	for ; i < len(sig); i++ {
		switch sig[i] {
		case '(', '{':
			depth++
		case ')', '}':
			if depth == 0 {
				goto closed
			}
			depth--
		case ',':
			if depth == 0 {
				part := sig[start:i]
				if part == "" {
					// trailing comma after a previous param
				} else if part == "..." {
					ps.variadic = true
				} else {
					ps.params = append(ps.params, part)
				}
				start = i + 1
			}
		}
	}
	return parsedSig{}, false
closed:
	if rest := sig[start:i]; rest != "" {
		if rest == "..." {
			ps.variadic = true
		} else {
			ps.params = append(ps.params, rest)
		}
	}
	if !strings.HasPrefix(sig[i:], ")->") {
		return parsedSig{}, false
	}
	ps.result = sig[i+3:]
	return ps, true
}

// SigCallMatch implements the type-matching rule of paper §6 on
// signature strings: an indirect call through a function pointer whose
// pointee signature is fpSig may target a function with signature
// fnSig when the signatures are structurally equal, or — for variadic
// pointers — when the return types match and the function's parameters
// begin with the pointer's fixed parameter types.
func SigCallMatch(fpSig, fnSig string) bool {
	if fpSig == "" || fnSig == "" {
		return false
	}
	if fpSig == fnSig {
		return true
	}
	// SigCallMatch runs for every pair of indirect call and function,
	// so the parameters go to buffers on the stack.
	var fpParams, fnParams [8]string
	fp, ok := parseSig(fpSig, fpParams[:0])
	if !ok || !fp.variadic {
		return false
	}
	fn, ok := parseSig(fnSig, fnParams[:0])
	if !ok {
		return false
	}
	if fp.result != fn.result {
		return false
	}
	if len(fn.params) < len(fp.params) {
		return false
	}
	for i := range fp.params {
		if fp.params[i] != fn.params[i] {
			return false
		}
	}
	return true
}

// parseAnnotations decodes inline-assembly annotations of the form
// "name : signature" into a map. Annotations whose signature part is a
// function-pointer signature ("*f(...)") are normalized to the pointee.
func parseAnnotations(anns []string) map[string]string {
	out := map[string]string{}
	for _, a := range anns {
		idx := strings.Index(a, ":")
		if idx < 0 {
			continue
		}
		name := strings.TrimSpace(a[:idx])
		sig := strings.TrimSpace(a[idx+1:])
		sig = strings.TrimPrefix(sig, "*")
		if name != "" {
			out[name] = sig
		}
	}
	return out
}
