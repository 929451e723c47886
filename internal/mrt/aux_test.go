package mrt_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mcfi/internal/mrt"
	"mcfi/internal/toolchain"
)

// cbPluginSrc takes the address of a function of the main image, so
// loading it makes that function address-taken, and Dlsym then does
// the same for plugin_call.
const (
	cbMainSrc = `
long host_cb(long x) { return x + 1; }
int main(void) {
	long h = dlopen("cbplugin");
	if (h == 0) return 1;
	long (*fn)(long) = (long (*)(long))dlsym(h, "plugin_call");
	if (fn == 0) return 2;
	return fn(41) == 42 ? 0 : 3;
}`
	cbPluginSrc = `
long host_cb(long x);
long (*cb)(long) = host_cb;
long plugin_call(long x) { return cb(x); }
`
)

// TestDlopenLeavesImageAuxUntouched: every runtime built from an image
// shares it, so a runtime's dlopen and dlsym must change its own copy
// of the aux info, never the image's.
func TestDlopenLeavesImageAuxUntouched(t *testing.T) {
	b := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, b, toolchain.Source{Name: "main", Text: cbMainSrc})
	plugin, err := b.Compile(toolchain.Source{Name: "cbplugin", Text: cbPluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(img.Aux)
	if err != nil {
		t.Fatal(err)
	}
	rt := newRT(t, img, mrt.Options{})
	rt.RegisterLibrary(plugin)
	if code, err := rt.Run(100_000_000); err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if delta, full := rt.PublishStats(); delta+full < 3 {
		t.Fatalf("want the load, dlopen and dlsym publications, got %d delta + %d full", delta, full)
	}
	after, err := json.Marshal(img.Aux)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("dlopen/dlsym changed the image's aux info:\nbefore %s\nafter  %s", before, after)
	}
}

// TestConcurrentDlopenOfOneImage runs runtimes of one image that
// dlopen at the same time; run it under -race. Each must see only its
// own policy changes, so none may report a CFI violation.
func TestConcurrentDlopenOfOneImage(t *testing.T) {
	b := toolchain.New(toolchain.WithInstrumentation())
	img := build(t, b, toolchain.Source{Name: "main", Text: cbMainSrc})
	plugin, err := b.Compile(toolchain.Source{Name: "cbplugin", Text: cbPluginSrc})
	if err != nil {
		t.Fatal(err)
	}
	const workers, runs = 2, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers*runs)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range runs {
				rt, err := mrt.New(img, mrt.Options{})
				if err != nil {
					errs <- err
					return
				}
				rt.RegisterLibrary(plugin)
				// A spurious violation surfaces here as a FaultCFI.
				code, err := rt.Run(100_000_000)
				if err == nil && code != 0 {
					err = fmt.Errorf("guest exited %d", code)
				}
				if err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
