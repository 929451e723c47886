package buildstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTestDisk(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestDiskRoundTripAndPersistence(t *testing.T) {
	dir := t.TempDir()
	k := testKey("persist")
	img := testImage(7)

	d := openTestDisk(t, dir)
	if err := d.Put(k, img); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	sameImage(t, got, img)
	d.Close()

	// A fresh instance over the same directory (a "restarted process")
	// serves the artifact without any rebuild.
	d2 := openTestDisk(t, dir)
	if !d2.Has(k) {
		t.Fatal("artifact not visible after reopen")
	}
	got, err = d2.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	sameImage(t, got, img)
	if st := d2.Stats(); st.Entries != 1 || st.Hits != 1 {
		t.Errorf("reopened stats: %+v", st)
	}
}

// TestDiskCorruptionQuarantined: truncated and bit-flipped entries are
// detected on read, reported as ErrNotFound (so the caller rebuilds),
// and removed so they cannot be served later.
func TestDiskCorruptionQuarantined(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string, raw []byte) []byte
	}{
		{"truncated", func(_ string, raw []byte) []byte { return raw[:len(raw)/2] }},
		{"bitflip", func(_ string, raw []byte) []byte {
			raw[len(raw)-1] ^= 0x01 // flip inside the payload
			return raw
		}},
		{"emptied", func(_ string, _ []byte) []byte { return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := openTestDisk(t, dir)
			k := testKey("corrupt-" + tc.name)
			if err := d.Put(k, testImage(9)); err != nil {
				t.Fatal(err)
			}
			path := d.blobPath(k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(path, raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Get(k); !errors.Is(err, ErrNotFound) {
				t.Fatalf("corrupt entry: %v, want ErrNotFound", err)
			}
			if st := d.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt blob not quarantined from disk")
			}
			// The slot is rebuildable: a fresh Put serves clean again.
			if err := d.Put(k, testImage(9)); err != nil {
				t.Fatal(err)
			}
			if _, err := d.Get(k); err != nil {
				t.Fatalf("rebuilt entry unreadable: %v", err)
			}
		})
	}
}

// TestDiskOversizedBlobQuarantined: a blob file larger than any blob
// PutBlob writes is refused without being read and quarantined, and
// PutBlob refuses an oversized payload.
func TestDiskOversizedBlobQuarantined(t *testing.T) {
	d := openTestDisk(t, t.TempDir())
	k := testKey("oversized")
	if err := d.Put(k, testImage(3)); err != nil {
		t.Fatal(err)
	}
	path := d.blobPath(k)
	// Sparse: the file has the size without taking the disk space.
	if err := os.Truncate(path, maxBlobBytes+blobHdrLen+1); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetBlob(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oversized entry: %v, want ErrNotFound", err)
	}
	if st := d.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("oversized blob not quarantined from disk")
	}
	// Never touched, so the OS backs it with no memory.
	if err := d.PutBlob(k, make([]byte, maxBlobBytes+1)); err == nil {
		t.Error("PutBlob accepted a payload over the bound")
	}
}

// TestDiskUndecodableQuarantineCleansIndex: an entry whose envelope
// verifies but whose payload does not decode (e.g. a format-version
// rollover) is quarantined completely — Has stops advertising it and
// Stats entries/bytes drop, not just the blob file.
func TestDiskUndecodableQuarantineCleansIndex(t *testing.T) {
	d := openTestDisk(t, t.TempDir())
	k := testKey("undecodable")
	// A validly sealed blob that is not a marshaled image.
	if err := d.PutBlob(k, []byte("not an image")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("undecodable entry: %v, want ErrNotFound", err)
	}
	if d.Has(k) {
		t.Error("Has still true after decode-failure quarantine")
	}
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Corrupt != 1 {
		t.Errorf("stats after quarantine: %+v, want 0 entries, 0 bytes, 1 corrupt", st)
	}
}

// TestDiskConcurrentPublishersConverge: many writers across two store
// instances sharing one directory (two "processes") publish the same
// keys concurrently; every key converges to one complete, verifiable
// entry. Run under -race.
func TestDiskConcurrentPublishersConverge(t *testing.T) {
	dir := t.TempDir()
	a := openTestDisk(t, dir)
	b := openTestDisk(t, dir)

	const keys, writers = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		for i := 0; i < keys; i++ {
			wg.Add(1)
			go func(w, i int) {
				defer wg.Done()
				d := a
				if w%2 == 1 {
					d = b
				}
				k := testKey(fmt.Sprintf("conv-%d", i))
				if err := d.Put(k, testImage(byte(i))); err != nil {
					t.Errorf("put %d/%d: %v", w, i, err)
				}
			}(w, i)
		}
	}
	wg.Wait()

	for i := 0; i < keys; i++ {
		k := testKey(fmt.Sprintf("conv-%d", i))
		img, err := a.Get(k)
		if err != nil {
			t.Fatalf("key %d from a: %v", i, err)
		}
		sameImage(t, img, testImage(byte(i)))
		if img2, err := b.Get(k); err != nil {
			t.Fatalf("key %d from b: %v", i, err)
		} else {
			sameImage(t, img2, img)
		}
	}
	// No temp files left behind by the atomic-rename publishes.
	filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() && !ValidKey(e.Name()) {
			t.Errorf("stray file after concurrent publish: %s", path)
		}
		return nil
	})
}

// TestDiskIndexRebuild: deleting the journal does not lose artifacts —
// the index is rebuilt by walking the object directory.
func TestDiskIndexRebuild(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir)
	k := testKey("rebuild")
	if err := d.Put(k, testImage(5)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	if err := os.Remove(filepath.Join(dir, "index.jsonl")); err != nil {
		t.Fatal(err)
	}
	d2 := openTestDisk(t, dir)
	if st := d2.Stats(); st.Entries != 1 {
		t.Fatalf("rebuilt index has %d entries, want 1", st.Entries)
	}
	if _, err := d2.Get(k); err != nil {
		t.Fatalf("artifact lost with journal: %v", err)
	}
}

// TestDiskTornJournalLineSkipped: a torn (partial) trailing journal
// line — as a crashed writer would leave — is skipped at load, and the
// artifact stays reachable via the filesystem fallback.
func TestDiskTornJournalLineSkipped(t *testing.T) {
	dir := t.TempDir()
	d := openTestDisk(t, dir)
	k := testKey("torn")
	if err := d.Put(k, testImage(3)); err != nil {
		t.Fatal(err)
	}
	d.Close()
	f, err := os.OpenFile(filepath.Join(dir, "index.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"deadbeef`) // torn mid-write
	f.Close()

	d2 := openTestDisk(t, dir)
	if _, err := d2.Get(k); err != nil {
		t.Fatalf("artifact unreachable after torn journal line: %v", err)
	}
}
