package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(exp, bench string, instrumented bool, rate float64) BenchRecord {
	return BenchRecord{
		Experiment: exp, Benchmark: bench,
		Engine: "threaded", Profile: "VISA-64",
		Instrumented: instrumented,
		WallSecs:     1, Instret: int64(rate * 1e6), MinstrPerSec: rate,
	}
}

// TestDiffSnapshotsMatchesByKey: rows pair up on
// experiment/benchmark/engine/profile/variant, deltas are relative
// Minstr/s changes, and one-sided rows are reported, not dropped.
func TestDiffSnapshotsMatchesByKey(t *testing.T) {
	oldRecs := []BenchRecord{
		rec("fig5", "qsort", true, 100),
		rec("fig5", "qsort", false, 120),
		rec("fig5", "gone", true, 50),
	}
	newRecs := []BenchRecord{
		rec("fig5", "qsort", true, 90),   // -10%
		rec("fig5", "qsort", false, 150), // +25%
		rec("fig5", "added", true, 70),
	}
	d := DiffSnapshots(oldRecs, newRecs)
	if len(d.Matched) != 2 {
		t.Fatalf("matched %d rows, want 2", len(d.Matched))
	}
	byKey := map[string]BenchDelta{}
	for _, m := range d.Matched {
		byKey[m.Key] = m
	}
	mcfi := byKey["fig5/qsort/threaded/VISA-64/mcfi"]
	if !mcfi.HasRate || mcfi.DeltaPct > -9.9 || mcfi.DeltaPct < -10.1 {
		t.Errorf("mcfi delta = %.2f%%, want -10%%", mcfi.DeltaPct)
	}
	base := byKey["fig5/qsort/threaded/VISA-64/baseline"]
	if base.DeltaPct < 24.9 || base.DeltaPct > 25.1 {
		t.Errorf("baseline delta = %.2f%%, want +25%%", base.DeltaPct)
	}
	if len(d.OnlyOld) != 1 || !strings.Contains(d.OnlyOld[0], "gone") {
		t.Errorf("OnlyOld = %v, want the removed row", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || !strings.Contains(d.OnlyNew[0], "added") {
		t.Errorf("OnlyNew = %v, want the added row", d.OnlyNew)
	}
}

// TestRegressionsRespectThreshold: only drops past the threshold
// count, and rate-less (wall-time-only) rows never gate.
func TestRegressionsRespectThreshold(t *testing.T) {
	wallOnly := BenchRecord{Experiment: "table3", Engine: "threaded", Profile: "VISA-64",
		Instrumented: true, WallSecs: 100}
	wallOnlySlow := wallOnly
	wallOnlySlow.WallSecs = 500
	oldRecs := []BenchRecord{rec("fig5", "a", true, 100), rec("fig5", "b", true, 100), wallOnly}
	newRecs := []BenchRecord{rec("fig5", "a", true, 95), rec("fig5", "b", true, 60), wallOnlySlow}
	d := DiffSnapshots(oldRecs, newRecs)
	regs := d.Regressions(20)
	if len(regs) != 1 || regs[0].New.Benchmark != "b" {
		t.Fatalf("Regressions(20) = %v, want only benchmark b", regs)
	}
	if len(d.Regressions(50)) != 0 {
		t.Errorf("Regressions(50) should be empty")
	}
	out := d.Format(20)
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("Format should flag the regression:\n%s", out)
	}
	if strings.Contains(out, "table3") {
		t.Errorf("wall-time-only rows should not appear in the rate table:\n%s", out)
	}
}

// TestDiffSnapshotsFlagsInstretMismatches: every matched row whose two
// sides both carry an instret and disagree is reported — even when its
// rate is unchanged — while rows with an instret on one side only, or
// none, are not.
func TestDiffSnapshotsFlagsInstretMismatches(t *testing.T) {
	same, drift, oneSided := rec("fig5", "same", true, 100), rec("fig5", "drift", true, 100), rec("fig5", "onesided", true, 100)
	drifted := drift
	drifted.Instret++
	unset := oneSided
	unset.Instret = 0
	wallOnly := BenchRecord{Experiment: "fig5", Engine: "threaded", Profile: "VISA-64", WallSecs: 1}
	d := DiffSnapshots(
		[]BenchRecord{same, drift, oneSided, wallOnly},
		[]BenchRecord{same, drifted, unset, wallOnly})
	if len(d.InstretDiffs) != 1 || d.InstretDiffs[0].Key != drift.Key() {
		t.Fatalf("InstretDiffs = %+v, want only %s", d.InstretDiffs, drift.Key())
	}
	if m := d.InstretDiffs[0]; m.Old.Instret != drift.Instret || m.New.Instret != drifted.Instret {
		t.Errorf("mismatch carries instret %d -> %d, want %d -> %d",
			m.Old.Instret, m.New.Instret, drift.Instret, drifted.Instret)
	}
	if len(d.Regressions(0)) != 0 {
		t.Errorf("equal rates should not regress: %+v", d.Regressions(0))
	}
	if out := d.Format(90); !strings.Contains(out, "MISMATCH") || !strings.Contains(out, "drift") {
		t.Errorf("Format should flag the instret mismatch:\n%s", out)
	}
}

// TestReadSnapshotRoundTrip reads a written snapshot back with the
// same schema mcfi-bench emits.
func TestReadSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	blob := `[
  {"experiment":"fig5","benchmark":"qsort","engine":"threaded","profile":"VISA-64",
   "instrumented":true,"wall_secs":0.5,"instret":1000000,"minstr_per_sec":2.0}
]`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].MinstrPerSec != 2.0 || recs[0].Key() != "fig5/qsort/threaded/VISA-64/mcfi" {
		t.Errorf("round trip gave %+v", recs)
	}
	if _, err := ReadSnapshot(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file should error")
	}
}
