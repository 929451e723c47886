package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"mcfi/internal/linker"
	"mcfi/internal/mrt"
	"mcfi/internal/vm"
)

// oracleJSON is the reference record: every input's expected outcome,
// recorded once with the interpreting engine (vm.EngineInterp) by
// `perfbench -record perfbench/oracle.json`.
//
//go:embed oracle.json
var oracleJSON []byte

// expect is one input's reference outcome.
type expect struct {
	// Src digests everything the outcome depends on (source texts, Work,
	// request fields), so a stale record is detected instead of trusted.
	Src       string `json:"src"`
	Status    string `json:"status,omitempty"` // serving verdict
	Exit      int64  `json:"exit"`
	Out       string `json:"out,omitempty"` // digest of guest output
	Instret   int64  `json:"instret,omitempty"`
	CodeBytes int64  `json:"code_bytes,omitempty"`
	EQCs      int64  `json:"eqcs,omitempty"`
}

// oracleInput names one input a workload checks, with the function that
// computes its reference outcome.
type oracleInput struct {
	key    string
	src    string
	record func() (expect, error)
}

type oracle map[string]expect

func loadOracle() (oracle, error) {
	o := oracle{}
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return o, nil
}

// require fails unless the record holds a current entry for every input.
func (o oracle) require(inputs []oracleInput) error {
	for _, in := range inputs {
		e, ok := o[in.key]
		if !ok {
			return fmt.Errorf("oracle has no entry for %s; re-record with -record", in.key)
		}
		if e.Src != in.src {
			return fmt.Errorf("oracle entry %s is stale (input changed); re-record with -record", in.key)
		}
	}
	return nil
}

// checkRun compares one guest run against the record.
func (o oracle) checkRun(key string, exit int64, out string, instret int64, wantInstret bool) error {
	e := o[key]
	switch {
	case exit != e.Exit:
		return fmt.Errorf("%s: exit %d, want %d", key, exit, e.Exit)
	case digest(out) != e.Out:
		return fmt.Errorf("%s: output digest %s, want %s", key, digest(out), e.Out)
	case wantInstret && instret != e.Instret:
		return fmt.Errorf("%s: instret %d, want %d", key, instret, e.Instret)
	}
	return nil
}

// digest is a short content hash over length-prefixed parts.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// interpRun executes img to completion under the reference engine.
func interpRun(img *linker.Image) (exit int64, out string, instret int64, err error) {
	rt, err := mrt.New(img, mrt.Options{Engine: vm.EngineInterp})
	if err != nil {
		return 0, "", 0, err
	}
	exit, err = rt.Run(0)
	return exit, rt.Output(), rt.Instret(), err
}

// recordOracle recomputes every input of every workload at every scale
// and writes the record to path.
func recordOracle(path string, log io.Writer) error {
	o := oracle{}
	for _, sc := range []scale{fullScale, tinyScale} {
		for _, w := range workloads {
			for _, in := range w.inputs(sc) {
				if _, done := o[in.key]; done {
					continue
				}
				e, err := in.record()
				if err != nil {
					return fmt.Errorf("record %s: %w", in.key, err)
				}
				e.Src = in.src
				o[in.key] = e
				fmt.Fprintf(log, "recorded %s\n", in.key)
			}
		}
	}
	keys := make([]string, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line keeps the checked-in record diffable.
	buf := []byte("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(o[k])
		if err != nil {
			return err
		}
		buf = append(buf, "  "...)
		buf = append(buf, kb...)
		buf = append(buf, ": "...)
		buf = append(buf, vb...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(path, buf, 0o644)
}
