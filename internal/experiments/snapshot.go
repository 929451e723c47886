package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// BenchRecord is one row of a mcfi-bench -json snapshot: either a
// whole experiment (Benchmark empty, wall time only) or one workload
// run within fig5/fig6 (retired instructions and throughput included).
// The snapshot files checked in at the repo root (BENCH_*.json) use
// this schema, and `mcfi-bench -diff` compares two of them.
type BenchRecord struct {
	Experiment   string  `json:"experiment"`
	Benchmark    string  `json:"benchmark,omitempty"`
	Engine       string  `json:"engine"`
	Profile      string  `json:"profile"`
	Instrumented bool    `json:"instrumented"`
	WallSecs     float64 `json:"wall_secs"`
	// Instret is the retired-instruction count of one fixed guest run.
	// It is deterministic, so -diff compares it exactly; a record whose
	// work is a run parameter (a job count) leaves it out.
	Instret      int64   `json:"instret,omitempty"`
	MinstrPerSec float64 `json:"minstr_per_sec,omitempty"`
	// Build-store provenance for the experiment, present only when
	// mcfi-bench ran with -store: per-tier hit counts ("mem", "disk")
	// and fresh compiles, as deltas over this record's run.
	StoreHits   map[string]int64 `json:"store_hits,omitempty"`
	StoreBuilds int64            `json:"store_builds,omitempty"`
}

// Key identifies the measurement a record belongs to, independent of
// the measured values: two snapshots are compared row-by-row on it.
func (r BenchRecord) Key() string {
	variant := "baseline"
	if r.Instrumented {
		variant = "mcfi"
	}
	name := r.Benchmark
	if name == "" {
		name = "-"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", r.Experiment, name, r.Engine, r.Profile, variant)
}

// ReadSnapshot loads a -json snapshot file.
func ReadSnapshot(path string) ([]BenchRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []BenchRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return recs, nil
}

// BenchDelta is one matched row of a snapshot diff.
type BenchDelta struct {
	Key      string
	Old, New BenchRecord
	// DeltaPct is the relative Minstr/s change, positive = faster.
	// Only meaningful when both rows carry throughput (HasRate).
	DeltaPct float64
	HasRate  bool
}

// DiffReport is the result of comparing two snapshots.
type DiffReport struct {
	Matched []BenchDelta
	// InstretDiffs lists the matched rows where both snapshots carry an
	// instret and the counts differ: the guest retired a different
	// instruction stream, whatever the rates say.
	InstretDiffs []BenchDelta
	// OnlyOld/OnlyNew list keys present in exactly one snapshot
	// (experiments added or removed between the two runs).
	OnlyOld, OnlyNew []string
}

// DiffSnapshots matches rows by Key, computes per-row throughput
// deltas, and collects instret mismatches. Rows without a Minstr/s
// figure (experiment-level wall-time rows) are matched but carry no
// delta — wall time across machines is too noisy to gate on.
func DiffSnapshots(oldRecs, newRecs []BenchRecord) DiffReport {
	oldByKey := map[string]BenchRecord{}
	for _, r := range oldRecs {
		oldByKey[r.Key()] = r
	}
	var rep DiffReport
	seen := map[string]bool{}
	for _, nr := range newRecs {
		k := nr.Key()
		seen[k] = true
		or, ok := oldByKey[k]
		if !ok {
			rep.OnlyNew = append(rep.OnlyNew, k)
			continue
		}
		d := BenchDelta{Key: k, Old: or, New: nr}
		if or.MinstrPerSec > 0 && nr.MinstrPerSec > 0 {
			d.HasRate = true
			d.DeltaPct = (nr.MinstrPerSec - or.MinstrPerSec) / or.MinstrPerSec * 100
		}
		rep.Matched = append(rep.Matched, d)
	}
	for _, r := range oldRecs {
		if !seen[r.Key()] {
			rep.OnlyOld = append(rep.OnlyOld, r.Key())
		}
	}
	sort.Slice(rep.Matched, func(i, j int) bool { return rep.Matched[i].Key < rep.Matched[j].Key })
	for _, m := range rep.Matched {
		if m.Old.Instret > 0 && m.New.Instret > 0 && m.Old.Instret != m.New.Instret {
			rep.InstretDiffs = append(rep.InstretDiffs, m)
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	return rep
}

// Regressions returns the matched rows whose throughput dropped by
// more than thresholdPct percent.
func (d DiffReport) Regressions(thresholdPct float64) []BenchDelta {
	var out []BenchDelta
	for _, m := range d.Matched {
		if m.HasRate && m.DeltaPct < -thresholdPct {
			out = append(out, m)
		}
	}
	return out
}

// Format renders the diff as the table `mcfi-bench -diff` prints.
func (d DiffReport) Format(thresholdPct float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %9s\n", "experiment", "old Mi/s", "new Mi/s", "delta")
	for _, m := range d.Matched {
		if !m.HasRate {
			continue
		}
		flag := ""
		if m.DeltaPct < -thresholdPct {
			flag = "  REGRESSION"
		}
		fmt.Fprintf(&b, "%-40s %12.2f %12.2f %+8.2f%%%s\n",
			m.Key, m.Old.MinstrPerSec, m.New.MinstrPerSec, m.DeltaPct, flag)
	}
	for _, m := range d.InstretDiffs {
		fmt.Fprintf(&b, "%-40s instret %d -> %d  MISMATCH\n", m.Key, m.Old.Instret, m.New.Instret)
	}
	for _, k := range d.OnlyOld {
		fmt.Fprintf(&b, "%-40s removed in new snapshot\n", k)
	}
	for _, k := range d.OnlyNew {
		fmt.Fprintf(&b, "%-40s new (no old measurement)\n", k)
	}
	return b.String()
}
