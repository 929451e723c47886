// mcfi-run builds and executes a MiniC program under the MCFI runtime:
// it compiles the sources (instrumented by default), links them with
// the MiniC libc, loads the image into a fresh sandbox with ID tables
// generated from the merged type information, and interprets it.
//
// Usage:
//
//	mcfi-run [-baseline] [-profile 64] [-engine interp] [-lib plugin.c]... [-max N] prog.c [more.c...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mcfi/internal/linker"
	"mcfi/internal/module"
	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
	"mcfi/internal/verifier"
	"mcfi/internal/visa"
	"mcfi/internal/vm"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	baselineF := flag.Bool("baseline", false, "run without MCFI instrumentation")
	profile := flag.Int("profile", 64, "VISA profile: 32 or 64")
	maxInstr := flag.Int64("max", 0, "instruction budget (0 = unlimited)")
	stats := flag.Bool("stats", false, "print instruction counts and table statistics")
	engine := vm.EngineBlockJIT
	flag.Var((*vm.EngineFlag)(&engine), "engine", vm.EngineUsage())
	var libs listFlag
	flag.Var(&libs, "lib", "MiniC source compiled as a dlopen-able library (repeatable)")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: mcfi-run [flags] prog.c [more.c ...]")
		os.Exit(2)
	}
	prof := visa.Profile64
	if *profile == 32 {
		prof = visa.Profile32
	}
	b := toolchain.New(
		toolchain.WithProfile(prof),
		toolchain.WithInstrument(!*baselineF),
		toolchain.WithLinkOptions(linker.Options{AllowUnresolved: true}),
	)

	var srcs []toolchain.Source
	for _, path := range flag.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		srcs = append(srcs, toolchain.Source{Name: baseName(path), Text: string(text)})
	}
	img, err := b.Build(srcs...)
	if err != nil {
		fatal(err)
	}

	opts := mrt.Options{Out: os.Stdout, Engine: engine}
	if b.Instrumented() {
		opts.Verify = func(obj *module.Object) error { return verifier.Verify(obj) }
	}
	rt, err := mrt.New(img, opts)
	if err != nil {
		fatal(err)
	}
	for _, lib := range libs {
		text, err := os.ReadFile(lib)
		if err != nil {
			fatal(err)
		}
		obj, err := b.Compile(toolchain.Source{Name: baseName(lib), Text: string(text)})
		if err != nil {
			fatal(err)
		}
		rt.RegisterLibrary(obj)
	}

	code, err := rt.Run(*maxInstr)
	if err != nil {
		fatal(err)
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "[mcfi-run] exit=%d instructions=%d", code, rt.Instret())
		if rt.Tables != nil {
			fmt.Fprintf(os.Stderr, " %s updates=%d retries=%d",
				rt.Tables, rt.Tables.Updates(), rt.Tables.Retries())
		}
		fmt.Fprintln(os.Stderr)
	}
	os.Exit(int(code))
}

func baseName(path string) string {
	return strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfi-run:", err)
	os.Exit(1)
}
